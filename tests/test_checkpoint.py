"""Tests for trace checkpointing: round trips, tampering, resume."""

import dataclasses
import hashlib
import json
import pickle

import pytest

from repro.analysis.lint import TraceSanitizer
from repro.core.dtexl import BASELINE, DTEXL_BEST
from repro.errors import TraceIntegrityError
from repro.raster.fragment import TileQuads
from repro.sim.checkpoint import (
    SweepProgress,
    TileChunkStore,
    TraceCheckpointStore,
    campaign_key,
    config_hash,
    segment_layout,
    trace_key,
    verify_trace,
)
from repro.sim.driver import TileTraceEntry
from repro.sim.experiment import ExperimentRunner
from repro.sim.replay import TraceReplayer
from repro.texture.sampler import FilterMode, Sampler
from repro.workloads.games import GAMES


@pytest.fixture()
def store(tmp_path):
    return TraceCheckpointStore(tmp_path / "traces")


@pytest.fixture(scope="module")
def game_trace(tiny_config):
    runner = ExperimentRunner(tiny_config, games=["SWa"])
    return runner.trace_for("SWa")


class TestKeys:
    def test_key_is_stable(self, tiny_config):
        recipe = GAMES["SWa"].recipe
        assert trace_key(tiny_config, recipe) == trace_key(tiny_config, recipe)

    def test_key_depends_on_config(self, tiny_config, small_config):
        recipe = GAMES["SWa"].recipe
        assert trace_key(tiny_config, recipe) != trace_key(small_config, recipe)

    def test_key_depends_on_recipe_and_frame(self, tiny_config):
        assert (
            trace_key(tiny_config, GAMES["SWa"].recipe)
            != trace_key(tiny_config, GAMES["GTr"].recipe)
        )
        assert (
            trace_key(tiny_config, GAMES["SWa"].recipe, frame=0)
            != trace_key(tiny_config, GAMES["SWa"].recipe, frame=1)
        )

    def test_key_depends_on_a_non_default_sampler(
        self, tmp_path, tiny_config
    ):
        """The default sampler keeps the sampler-less key, which the
        benchmark uses to find a campaign's frames; any other sampler
        gets its own key, in the runner's stores too."""
        recipe = GAMES["SWa"].recipe
        plain = trace_key(tiny_config, recipe)
        assert trace_key(tiny_config, recipe, sampler=Sampler()) == plain
        trilinear = Sampler(filter_mode=FilterMode.TRILINEAR)
        assert trace_key(tiny_config, recipe, sampler=trilinear) != plain
        wide = Sampler(FilterMode.ANISOTROPIC, max_anisotropy=8)
        assert trace_key(tiny_config, recipe, sampler=wide) != trace_key(
            tiny_config, recipe, sampler=Sampler(FilterMode.ANISOTROPIC)
        )
        store = TraceCheckpointStore(tmp_path)
        keys = [
            ExperimentRunner(
                tiny_config, sampler, checkpoint_store=store
            ).chunk_store_for("SWa").key
            for sampler in (None, trilinear)
        ]
        assert keys == [
            plain, trace_key(tiny_config, recipe, sampler=trilinear)
        ]

    def test_shared_store_keeps_filter_modes_apart(
        self, tmp_path, tiny_config
    ):
        store = TraceCheckpointStore(tmp_path)
        bilinear = ExperimentRunner(tiny_config, checkpoint_store=store)
        trilinear = ExperimentRunner(
            tiny_config, Sampler(filter_mode=FilterMode.TRILINEAR),
            checkpoint_store=store,
        )
        first = bilinear.trace_for("CCS")
        second = trilinear.trace_for("CCS")
        assert trilinear.renders_performed == 1
        assert second.total_texture_lines != first.total_texture_lines
        assert len(list(tmp_path.glob("*.trace"))) == 2

    def test_config_hash_sensitivity(self, tiny_config, small_config):
        assert config_hash(tiny_config) != config_hash(small_config)
        assert config_hash(tiny_config) == config_hash(
            dataclasses.replace(tiny_config)
        )


class TestRoundTrip:
    def test_replay_results_identical(self, store, tiny_config, game_trace):
        key = trace_key(tiny_config, GAMES["SWa"].recipe)
        store.save(key, game_trace)
        loaded = store.load(key)
        replayer = TraceReplayer(tiny_config)
        for design in (BASELINE, DTEXL_BEST):
            original = replayer.run(game_trace, design)
            reloaded = replayer.run(loaded, design)
            assert reloaded == original

    def test_contains(self, store, tiny_config, game_trace):
        key = trace_key(tiny_config, GAMES["SWa"].recipe)
        assert not store.contains(key)
        store.save(key, game_trace)
        assert store.contains(key)

    def test_missing_checkpoint_raises(self, store):
        with pytest.raises(TraceIntegrityError):
            store.load("no-such-key")


class TestTamperDetection:
    def _saved(self, store, tiny_config, trace):
        key = trace_key(tiny_config, GAMES["SWa"].recipe)
        path = store.save(key, trace)
        return key, path

    def test_flipped_payload_byte(self, store, tiny_config, game_trace):
        key, path = self._saved(store, tiny_config, game_trace)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceIntegrityError, match="hash mismatch"):
            store.load(key)

    def test_truncated_payload(self, store, tiny_config, game_trace):
        key, path = self._saved(store, tiny_config, game_trace)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TraceIntegrityError):
            store.load(key)

    def test_corrupt_header(self, store, tiny_config, game_trace):
        key, path = self._saved(store, tiny_config, game_trace)
        blob = path.read_bytes()
        path.write_bytes(b"not json at all\n" + blob.split(b"\n", 1)[1])
        with pytest.raises(TraceIntegrityError):
            store.load(key)

    @pytest.mark.parametrize("header", [b"[]", b"7"])
    def test_non_object_header(self, store, tiny_config, game_trace, header):
        key, path = self._saved(store, tiny_config, game_trace)
        payload = path.read_bytes().split(b"\n", 1)[1]
        path.write_bytes(header + b"\n" + payload)
        with pytest.raises(TraceIntegrityError, match="corrupt header"):
            store.load(key)

    @pytest.mark.parametrize("header", [b"[]", b"7"])
    def test_non_object_chunk_header_is_a_miss(
        self, tmp_path, game_trace, header
    ):
        chunks = TileChunkStore(tmp_path / "chunks", "k")
        tiles = sorted(game_trace.tiles)[:4]
        chunks.save_tile(0, tiles, [game_trace.tiles[t] for t in tiles])
        assert chunks.load_tile(0, tiles) is not None
        path = chunks.segment_path(0)
        payload = path.read_bytes().split(b"\n", 1)[1]
        path.write_bytes(header + b"\n" + payload)
        assert chunks.load_tile(0, tiles) is None

    def test_key_mismatch(self, store, tiny_config, game_trace):
        key, path = self._saved(store, tiny_config, game_trace)
        other = "0" * 64
        path.rename(store.path_for(other))
        with pytest.raises(TraceIntegrityError, match="written for key"):
            store.load(other)

    def test_wrong_version(self, store, tiny_config, game_trace):
        key, path = self._saved(store, tiny_config, game_trace)
        header_line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["version"] = 99
        path.write_bytes(
            json.dumps(header, sort_keys=True).encode() + b"\n" + payload
        )
        with pytest.raises(TraceIntegrityError, match="version"):
            store.load(key)


class TestStructuralInvariants:
    def test_good_trace_verifies(self, game_trace):
        verify_trace(game_trace)

    def test_missing_tile_detected(self, game_trace):
        broken = dataclasses.replace(game_trace, tiles=dict(game_trace.tiles))
        broken.tiles.pop(next(iter(broken.tiles)))
        with pytest.raises(TraceIntegrityError, match="tile map"):
            verify_trace(broken)

    def test_quad_count_mismatch_detected(self, game_trace):
        stats = dataclasses.replace(
            game_trace.stats, num_quads=game_trace.stats.num_quads + 1
        )
        with pytest.raises(TraceIntegrityError, match="quads"):
            verify_trace(dataclasses.replace(game_trace, stats=stats))

    def test_pixel_count_mismatch_detected(self, game_trace):
        stats = dataclasses.replace(
            game_trace.stats, pixels_shaded=game_trace.stats.pixels_shaded + 1
        )
        with pytest.raises(TraceIntegrityError, match="pixels"):
            verify_trace(dataclasses.replace(game_trace, stats=stats))


class TestCountersReadColumns:
    """Quad and pixel counters use column aggregates, never ``Quad`` views."""

    @pytest.fixture()
    def no_views(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a counter built Quad views")

        monkeypatch.setattr(TileQuads, "to_quads", refuse)

    def test_counters(self, tmp_path, tiny_config, game_trace, no_views):
        assert game_trace.total_quads == game_trace.stats.num_quads
        assert game_trace.total_texture_lines > 0
        verify_trace(game_trace)
        result = TraceReplayer(tiny_config).run(game_trace, BASELINE)
        assert TraceSanitizer(tiny_config).check(
            game_trace, result, BASELINE
        ) == []
        # A chunked streaming replay counts while tiles flow past and
        # seals the totals into the frame meta.
        runner = ExperimentRunner(
            tiny_config, games=["SWa"], stream="streaming",
            checkpoint_store=TraceCheckpointStore(tmp_path / "traces"),
        )
        assert runner.run("SWa", BASELINE) == result
        meta = runner.chunk_store_for("SWa").frame_meta()
        assert meta["num_quads"] == game_trace.stats.num_quads
        assert meta["pixels_shaded"] == game_trace.stats.pixels_shaded


class TestRunnerIntegration:
    def test_second_runner_renders_nothing(self, tmp_path, tiny_config):
        store = TraceCheckpointStore(tmp_path / "traces")
        first = ExperimentRunner(
            tiny_config, games=["SWa"], checkpoint_store=store
        )
        first.run_suite(BASELINE)
        assert first.renders_performed == 1
        second = ExperimentRunner(
            tiny_config, games=["SWa"], checkpoint_store=store
        )
        result = second.run_suite(BASELINE)
        assert second.renders_performed == 0
        assert result.per_game["SWa"] == first.run_suite(BASELINE).per_game["SWa"]

    def test_corrupted_checkpoint_is_rerendered(self, tmp_path, tiny_config):
        store = TraceCheckpointStore(tmp_path / "traces")
        first = ExperimentRunner(
            tiny_config, games=["SWa"], checkpoint_store=store
        )
        first.trace_for("SWa")
        key = trace_key(tiny_config, GAMES["SWa"].recipe)
        path = store.path_for(key)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        second = ExperimentRunner(
            tiny_config, games=["SWa"], checkpoint_store=store
        )
        second.trace_for("SWa")
        assert second.renders_performed == 1
        # ... and the re-render healed the checkpoint.
        third = ExperimentRunner(
            tiny_config, games=["SWa"], checkpoint_store=store
        )
        third.trace_for("SWa")
        assert third.renders_performed == 0


def version1_entry(entry):
    """``entry`` in the version-1 pickled layout: a list of ``Quad``s."""
    legacy = TileTraceEntry.__new__(TileTraceEntry)
    legacy.__dict__.update(
        fetch_lines=entry.fetch_lines, fetch_cycles=entry.fetch_cycles,
        quads=list(entry.quads), _stream=None, _stream_side=0,
    )
    return legacy


def write_version1(path, header, obj):
    """A well-formed version-1 file: valid header, matching payload hash."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    header = dict(
        header, version=1, sha256=hashlib.sha256(payload).hexdigest()
    )
    text = json.dumps(header, sort_keys=True, separators=(",", ":"))
    path.write_bytes(text.encode("ascii") + b"\n" + payload)


class TestVersionOneCheckpoints:
    """Pre-columnar checkpoints are cache misses that re-render."""

    def test_version1_frame_checkpoint_is_rerendered(
        self, tmp_path, tiny_config, game_trace
    ):
        store = TraceCheckpointStore(tmp_path / "traces")
        key = trace_key(tiny_config, GAMES["SWa"].recipe)
        legacy = dataclasses.replace(game_trace, tiles={
            tile: version1_entry(entry)
            for tile, entry in game_trace.tiles.items()
        })
        write_version1(store.path_for(key), {
            "key": key,
            "num_quads": game_trace.stats.num_quads,
            "num_tiles": len(game_trace.tiles),
        }, legacy)
        with pytest.raises(TraceIntegrityError, match="version 1"):
            store.load(key)
        runner = ExperimentRunner(
            tiny_config, games=["SWa"], checkpoint_store=store
        )
        assert runner.trace_for("SWa") == game_trace
        assert runner.renders_performed == 1
        # The re-render replaced the stale file with a loadable one.
        assert store.load(key) == game_trace

    def test_version1_tile_chunk_is_rerendered(
        self, tmp_path, tiny_config, game_trace
    ):
        """A version-1 record in a segment's place loads as a miss, and
        the stream re-renders and re-saves that segment."""
        runner = ExperimentRunner(
            tiny_config, games=["SWa"], stream="streaming",
            checkpoint_store=TraceCheckpointStore(tmp_path / "traces"),
        )
        want = runner.run("SWa", DTEXL_BEST)
        store = runner.chunk_store_for("SWa")
        (tiles,), _ = segment_layout(tiny_config.tiles_x, tiny_config.tiles_y)
        path = store.segment_path(0)
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        write_version1(path, header, [
            version1_entry(game_trace.tiles[tile]) for tile in tiles
        ])
        assert store.load_tile(0, tiles) is None
        stream = runner.stream_for("SWa")
        assert runner.replayer.run_stream(stream, DTEXL_BEST) == want
        assert stream.tiles_rendered == len(tiles)
        entries, _ = store.load_tile(0, tiles)
        assert entries == [game_trace.tiles[tile] for tile in tiles]


class TestSweepProgress:
    def test_rows_scoped_by_campaign(self, tmp_path):
        a = SweepProgress(tmp_path, "campaign-a")
        b = SweepProgress(tmp_path, "campaign-b")
        a.record("p1", {"speedup": 1.0})
        b.record("p1", {"speedup": 2.0})
        assert a.completed_rows()["p1"] == {"speedup": 1.0}
        assert b.completed_rows()["p1"] == {"speedup": 2.0}

    def test_malformed_lines_skipped(self, tmp_path):
        progress = SweepProgress(tmp_path, "c")
        progress.record("p1", {"x": 1})
        with open(progress.path, "a") as handle:
            handle.write("{truncated json\n")
        progress.record("p2", {"x": 2})
        assert set(progress.completed_rows()) == {"p1", "p2"}

    def test_campaign_key_depends_on_games(self, tiny_config):
        assert campaign_key(tiny_config, ["SWa"], "baseline") != campaign_key(
            tiny_config, ["SWa", "GTr"], "baseline"
        )
