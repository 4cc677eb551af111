"""Tests for frame checkpointing: round trips, tampering, resume.

A frame is stored one way for both stream drivers: the typed segments
and sealed ``frame.json`` manifest of a :class:`TileChunkStore`.  A
batch runner saves and loads whole frames through it
(``save_frame`` / ``load_frame``), so these tests hold the batch half
to the same round-trip, tamper and resume guarantees the streamed half
has in ``test_stream``, and check that a frame either driver sealed
serves the other.
"""

import dataclasses
import hashlib
import json
import pickle
import shutil

import pytest

from repro.analysis.lint import TraceSanitizer
from repro.config import GPUConfig
from repro.core.dtexl import BASELINE, DTEXL_BEST
from repro.errors import TraceIntegrityError
from repro.raster.fragment import TileQuads
from repro.sim import checkpoint
from repro.sim.checkpoint import (
    SweepProgress,
    TileChunkStore,
    campaign_key,
    config_hash,
    segment_layout,
    trace_digest,
    trace_key,
    verify_trace,
)
from repro.sim.driver import FrameRenderer, TileTraceEntry
from repro.sim.experiment import CHUNK_SUBDIR, ExperimentRunner
from repro.sim.replay import TraceReplayer
from repro.sim.sweep import DesignSweep
from repro.texture.sampler import FilterMode, Sampler
from repro.workloads.games import GAMES, build_game

#: 16x8 tiles: eight segments per frame.
SEGMENTED = GPUConfig(screen_width=512, screen_height=256)


def frame_store(store_dir, config, alias="SWa"):
    """The store a runner over ``store_dir`` keeps ``alias``'s frame in."""
    return ExperimentRunner(config, store_dir=store_dir).chunk_store_for(alias)


def read_segment(store, index=0):
    """The record reader's verdict on one segment: raises on damage."""
    return checkpoint._read_record(
        store.segment_path(index), f"{store.key}:s{index}",
        key=store.key, segment=index,
    )


@pytest.fixture()
def store(tmp_path, tiny_config):
    """SWa's frame store, empty."""
    return frame_store(tmp_path / "traces", tiny_config)


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
        keys = [
            ExperimentRunner(
                tiny_config, sampler, store_dir=tmp_path
            ).chunk_store_for("SWa").key
            for sampler in (None, trilinear)
        ]
        assert keys == [
            plain, trace_key(tiny_config, recipe, sampler=trilinear)
        ]

    def test_shared_store_keeps_filter_modes_apart(
        self, tmp_path, tiny_config
    ):
        bilinear = ExperimentRunner(tiny_config, store_dir=tmp_path)
        trilinear = ExperimentRunner(
            tiny_config, Sampler(filter_mode=FilterMode.TRILINEAR),
            store_dir=tmp_path,
        )
        first = bilinear.trace_for("CCS")
        second = trilinear.trace_for("CCS")
        assert trilinear.renders_performed == 1
        assert second.total_texture_lines != first.total_texture_lines
        frames = sorted((tmp_path / CHUNK_SUBDIR).iterdir())
        assert len(frames) == 2
        assert all((frame / "frame.json").is_file() for frame in frames)

    def test_config_hash_sensitivity(self, tiny_config, small_config):
        assert config_hash(tiny_config) != config_hash(small_config)
        assert config_hash(tiny_config) == config_hash(
            dataclasses.replace(tiny_config)
        )


class TestRoundTrip:
    def test_replay_results_identical(self, store, tiny_config, game_trace):
        store.save_frame(game_trace)
        loaded = store.load_frame(tiny_config)
        assert loaded == game_trace
        replayer = TraceReplayer(tiny_config)
        for design in (BASELINE, DTEXL_BEST):
            original = replayer.run(game_trace, design)
            reloaded = replayer.run(loaded, design)
            assert reloaded == original

    def test_contains(self, store, tiny_config, game_trace):
        """A frame loads once it is saved and sealed with its stats."""
        assert store.load_frame(tiny_config) is None
        store.save_frame(game_trace)
        assert store.manifest()["stats"] == dataclasses.asdict(
            game_trace.stats
        )
        assert store.load_frame(tiny_config) == game_trace

    def test_missing_checkpoint_is_a_miss(self, store, tiny_config, game_trace):
        store.save_frame(game_trace)
        store.segment_path(0).unlink()
        assert store.load_frame(tiny_config) is None


class TestTamperDetection:
    """A damaged segment fails the record reader and loads as a miss."""

    def _saved(self, store, trace):
        store.save_frame(trace)
        return store.segment_path(0)

    def test_flipped_payload_byte(self, store, tiny_config, game_trace):
        path = self._saved(store, game_trace)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceIntegrityError, match="hash mismatch"):
            read_segment(store)
        assert store.load_frame(tiny_config) is None

    def test_truncated_payload(self, store, tiny_config, game_trace):
        path = self._saved(store, game_trace)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TraceIntegrityError):
            read_segment(store)
        assert store.load_frame(tiny_config) is None

    def test_corrupt_header(self, store, tiny_config, game_trace):
        path = self._saved(store, game_trace)
        blob = path.read_bytes()
        path.write_bytes(b"not json at all\n" + blob.split(b"\n", 1)[1])
        with pytest.raises(TraceIntegrityError):
            read_segment(store)
        assert store.load_frame(tiny_config) is None

    @pytest.mark.parametrize("header", [b"[]", b"7"])
    def test_non_object_header(
        self, store, tiny_config, game_trace, header
    ):
        path = self._saved(store, game_trace)
        payload = path.read_bytes().split(b"\n", 1)[1]
        path.write_bytes(header + b"\n" + payload)
        with pytest.raises(TraceIntegrityError, match="corrupt header"):
            read_segment(store)
        assert store.load_frame(tiny_config) is None

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

    def test_key_mismatch(self, store, tmp_path, game_trace):
        path = self._saved(store, game_trace)
        other = TileChunkStore(tmp_path / "other", "0" * 64)
        shutil.copy(path, other.segment_path(0))
        with pytest.raises(TraceIntegrityError, match="written for key"):
            read_segment(other)
        (tiles,), _ = segment_layout(
            game_trace.config.tiles_x, game_trace.config.tiles_y
        )
        assert other.load_tile(0, tiles) is None

    def test_wrong_version(self, store, tiny_config, game_trace):
        path = self._saved(store, game_trace)
        header_line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["version"] = 99
        path.write_bytes(
            json.dumps(header, sort_keys=True).encode() + b"\n" + payload
        )
        with pytest.raises(TraceIntegrityError, match="version"):
            read_segment(store)
        assert store.load_frame(tiny_config) is None


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
        # seals the totals into the frame meta, and a batch load of the
        # frame verifies them off the columns too.
        runner = ExperimentRunner(
            tiny_config, games=["SWa"], stream="streaming",
            store_dir=tmp_path / "traces",
        )
        assert runner.run("SWa", BASELINE) == result
        store = runner.chunk_store_for("SWa")
        meta = store.frame_meta()
        assert meta["num_quads"] == game_trace.stats.num_quads
        assert meta["pixels_shaded"] == game_trace.stats.pixels_shaded
        assert store.load_frame(tiny_config) == game_trace


class TestRunnerIntegration:
    def test_second_runner_renders_nothing(self, tmp_path, tiny_config):
        store_dir = tmp_path / "traces"
        first = ExperimentRunner(
            tiny_config, games=["SWa"], store_dir=store_dir
        )
        first.run_suite(BASELINE)
        assert first.renders_performed == 1
        second = ExperimentRunner(
            tiny_config, games=["SWa"], store_dir=store_dir
        )
        result = second.run_suite(BASELINE)
        assert second.renders_performed == 0
        assert result.per_game["SWa"] == first.run_suite(BASELINE).per_game["SWa"]

    def test_corrupted_checkpoint_is_rerendered(self, tmp_path, tiny_config):
        store_dir = tmp_path / "traces"
        first = ExperimentRunner(
            tiny_config, games=["SWa"], store_dir=store_dir
        )
        first.trace_for("SWa")
        path = first.chunk_store_for("SWa").segment_path(0)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        second = ExperimentRunner(
            tiny_config, games=["SWa"], store_dir=store_dir
        )
        second.trace_for("SWa")
        assert second.renders_performed == 1
        # ... and the re-render healed the checkpoint.
        third = ExperimentRunner(
            tiny_config, games=["SWa"], store_dir=store_dir
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
        """A version-1 whole-frame record is read neither beside the
        segments, where version 1 kept it, nor in a sealed segment's
        place: the batch runner re-renders and heals the segment."""
        store_dir = tmp_path / "traces"
        store = frame_store(store_dir, tiny_config)
        store.save_frame(game_trace)
        key = store.key
        legacy = dataclasses.replace(game_trace, tiles={
            tile: version1_entry(entry)
            for tile, entry in game_trace.tiles.items()
        })
        header = {
            "key": key,
            "num_quads": game_trace.stats.num_quads,
            "num_tiles": len(game_trace.tiles),
        }
        write_version1(store_dir / f"{key}.trace", header, legacy)
        write_version1(store.segment_path(0), header, legacy)
        with pytest.raises(TraceIntegrityError, match="version 1"):
            read_segment(store)
        assert store.load_frame(tiny_config) is None
        runner = ExperimentRunner(
            tiny_config, games=["SWa"], store_dir=store_dir
        )
        assert runner.trace_for("SWa") == game_trace
        assert runner.renders_performed == 1
        # The re-render replaced the stale segment with a loadable one.
        assert store.load_frame(tiny_config) == game_trace

    def test_version1_tile_chunk_is_rerendered(
        self, tmp_path, tiny_config, game_trace
    ):
        """A version-1 record in a segment's place loads as a miss, and
        the stream re-renders and re-saves that segment."""
        runner = ExperimentRunner(
            tiny_config, games=["SWa"], stream="streaming",
            store_dir=tmp_path / "traces",
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


# -- one frame store for both drivers ------------------------------------------


def rewrite_manifest(store, **changes):
    """Rewrite ``frame.json`` with ``changes`` applied (``None`` deletes)."""
    manifest = json.loads(store.manifest_path().read_text())
    for name, value in changes.items():
        if value is None:
            manifest.pop(name, None)
        else:
            manifest[name] = value
    store.manifest_path().write_text(json.dumps(manifest))


def column_dtypes(trace):
    """Every tile's column dtypes and fetch-line types, in tile order."""
    return [
        (
            tile,
            [getattr(entry.columns, name).dtype for name in TileQuads.FIELDS],
            type(entry.fetch_cycles),
            {type(line) for line in entry.fetch_lines},
        )
        for tile, entry in trace.tiles.items()
    ]


class TestCrossDriver:
    """A frame either driver sealed serves the other without a render."""

    @pytest.mark.parametrize("first,second", [
        ("batch", "streaming"), ("streaming", "batch"),
    ])
    def test_second_driver_renders_nothing(
        self, tmp_path, small_config, first, second
    ):
        def runner(stream):
            return ExperimentRunner(
                small_config, games=["SWa", "GTr"], store_dir=tmp_path,
                stream=stream,
            )

        writer = runner(first)
        want = [writer.run(alias, DTEXL_BEST) for alias in writer.games]
        assert writer.renders_performed == 2
        reader = runner(second)
        assert [reader.run(alias, DTEXL_BEST) for alias in reader.games] == (
            want
        )
        assert [reader.run(alias, BASELINE) for alias in reader.games] == [
            writer.run(alias, BASELINE) for alias in writer.games
        ]
        assert reader.renders_performed == 0
        assert not list(tmp_path.rglob("*.trace"))


class TestLoadedTraceEqualsTheRender:
    """For every game at 512x256, a frame sealed by either driver loads
    as the batch render: equal, in its tile order, with its dtypes, its
    digest and its replays."""

    @pytest.fixture(scope="class")
    def renders(self):
        renderer = FrameRenderer(SEGMENTED)
        return {
            alias: renderer.render(build_game(alias, SEGMENTED))[0]
            for alias in GAMES
        }

    @pytest.mark.parametrize("alias", sorted(GAMES))
    def test_both_drivers_seal_the_render(self, tmp_path, renders, alias):
        trace = renders[alias]
        replayer = TraceReplayer(SEGMENTED)
        want = {
            design: replayer.run(trace, design)
            for design in (BASELINE, DTEXL_BEST)
        }
        batch = frame_store(tmp_path / "batch", SEGMENTED, alias)
        batch.save_frame(trace)
        streaming = ExperimentRunner(
            SEGMENTED, games=[alias], store_dir=tmp_path / "streaming",
            stream="streaming",
        )
        stream = streaming.stream_for(alias)
        assert replayer.run_stream(stream, DTEXL_BEST) == want[DTEXL_BEST]
        assert stream.stats == trace.stats  # z_cull_rate included
        streamed = streaming.chunk_store_for(alias)
        assert streamed.manifest()["stats"] == dataclasses.asdict(trace.stats)
        want_digest = trace_digest(trace)
        for store in (batch, streamed):
            loaded = store.load_frame(SEGMENTED)
            assert loaded == trace
            assert list(loaded.tiles) == list(trace.tiles)  # scanline
            assert column_dtypes(loaded) == column_dtypes(trace)
            assert trace_digest(loaded) == want_digest
            assert store.frame_meta()["digest"] == want_digest
            for design, result in want.items():
                assert replayer.run(loaded, design) == result


class TestSealedStats:
    """Only a traversal that rendered every tile seals stats; a batch
    load of a frame sealed without them renders once and upgrades it."""

    def test_partial_traversal_seals_none_and_batch_upgrades(
        self, tmp_path
    ):
        def runner(stream):
            return ExperimentRunner(
                SEGMENTED, games=["SWa"], store_dir=tmp_path, stream=stream
            )

        trace, _ = FrameRenderer(SEGMENTED).render(
            build_game("SWa", SEGMENTED)
        )
        cold = runner("streaming")
        want = cold.run("SWa", DTEXL_BEST)
        store = cold.chunk_store_for("SWa")
        assert store.manifest()["stats"] == dataclasses.asdict(trace.stats)
        # Lose the manifest and one segment: the next traversal loads
        # seven segments, renders one and seals without stats.
        store.manifest_path().unlink()
        store.segment_path(3).unlink()
        partial = runner("streaming")
        stream = partial.stream_for("SWa")
        assert partial.replayer.run_stream(stream, DTEXL_BEST) == want
        assert 0 < stream.tiles_rendered < SEGMENTED.num_tiles
        assert stream.stats is None
        assert "stats" not in store.manifest()
        assert store.load_frame(SEGMENTED) is None
        upgrader = runner("batch")
        assert upgrader.trace_for("SWa") == trace
        assert upgrader.renders_performed == 1
        assert store.manifest()["stats"] == dataclasses.asdict(trace.stats)
        for stream_driver in ("batch", "streaming"):
            reader = runner(stream_driver)
            assert reader.run("SWa", DTEXL_BEST) == want
            assert reader.renders_performed == 0

    @pytest.mark.parametrize("damage", [
        "missing", "extra", "string", "bool", "int-for-float", "list",
    ])
    def test_malformed_stats_rerender(
        self, tmp_path, tiny_config, game_trace, damage
    ):
        store = frame_store(tmp_path, tiny_config)
        store.save_frame(game_trace)
        good = store.manifest()["stats"]
        stats = dict(good)
        if damage == "missing":
            del stats["z_cull_rate"]
        elif damage == "extra":
            stats["frames"] = 1
        elif damage == "string":
            stats["num_draws"] = str(stats["num_draws"])
        elif damage == "bool":
            stats["nonempty_tiles"] = True
        elif damage == "int-for-float":
            stats["z_cull_rate"] = 0
        else:
            stats = list(stats.values())
        rewrite_manifest(store, stats=stats)
        assert store.load_frame(tiny_config) is None
        runner = ExperimentRunner(tiny_config, games=["SWa"], store_dir=tmp_path)
        assert runner.trace_for("SWa") == game_trace
        assert runner.trace_for("SWa").stats == game_trace.stats
        assert runner.renders_performed == 1
        assert store.manifest()["stats"] == good  # upgraded
        reader = ExperimentRunner(tiny_config, games=["SWa"], store_dir=tmp_path)
        assert reader.trace_for("SWa") == game_trace
        assert reader.renders_performed == 0


class TestSegmentCount:
    """A manifest that seals fewer segments than the grid has fails
    closed for every reader, not only for the streamed replay."""

    def test_too_few_sealed_segments_fail_closed(self, tmp_path):
        trace, _ = FrameRenderer(SEGMENTED).render(
            build_game("SWa", SEGMENTED)
        )
        store = frame_store(tmp_path, SEGMENTED)
        store.save_frame(trace)
        sealed = json.loads(store.manifest_path().read_text())["segments"]
        assert len(sealed) == 8
        rewrite_manifest(store, segments=sealed[:7], digest=None)
        with pytest.raises(TraceIntegrityError, match="seals 7 segments"):
            store.frame_meta()
        with pytest.raises(TraceIntegrityError, match="seals 7 segments"):
            store.load_frame(SEGMENTED)
        with pytest.raises(TraceIntegrityError, match="seals 7 segments"):
            ExperimentRunner(
                SEGMENTED, games=["SWa"], store_dir=tmp_path
            ).trace_for("SWa")
        with pytest.raises(TraceIntegrityError, match="seals 7 segments"):
            ExperimentRunner(
                SEGMENTED, games=["SWa"], store_dir=tmp_path,
                stream="streaming",
            ).run("SWa", BASELINE)


class TestNoUnpickling:
    """A warm batch runner and a warm batch sweep read every frame from
    typed segments: nothing is unpickled."""

    def test_warm_batch_reads_unpickle_nothing(
        self, tmp_path, tiny_config, monkeypatch
    ):
        sweep = DesignSweep(groupings=["CG-square"], decoupled=[True])
        games = ["SWa", "GTr"]
        cold = sweep.run(
            ExperimentRunner(tiny_config, games=games),
            checkpoint_dir=tmp_path,
        )

        def refuse(*args, **kwargs):
            raise AssertionError("a checkpoint read unpickled")

        monkeypatch.setattr(pickle, "loads", refuse)
        monkeypatch.setattr(pickle, "load", refuse)
        runner = ExperimentRunner(
            tiny_config, games=games, store_dir=tmp_path / "traces"
        )
        for alias in games:
            assert runner.trace_for(alias).stats.num_quads > 0
        warm_runner = ExperimentRunner(tiny_config, games=games)
        warm = sweep.run(warm_runner, checkpoint_dir=tmp_path)
        assert runner.renders_performed == warm_runner.renders_performed == 0
        assert warm.rows == cold.rows
