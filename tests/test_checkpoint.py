"""Tests for frame checkpointing: round trips, tampering, resume.

A frame is stored one way for both stream drivers: the typed segments
and sealed ``frame.json`` manifest of a :class:`TileChunkStore`, read
and written through one :class:`StreamingTileStream`.  A batch runner
keeps one scanline traversal of it as its trace
(``ExperimentRunner.trace_for``), so these tests hold the batch half to
the same round-trip, tamper and resume guarantees the streamed half has
in ``test_stream``, check that a frame either driver sealed serves the
other, and that the manifest is the commit record: only a seal, which
always carries the frame's stats, vouches for a segment.
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
from repro.sim.driver import DEFAULT_GROUP_TILES, FrameRenderer, TileTraceEntry
from repro.sim.experiment import ExperimentRunner
from repro.sim.replay import TraceReplayer
from repro.sim.stream import StreamingTileStream
from repro.sim.sweep import DesignSweep
from repro.workloads.games import GAMES, build_game

#: 16x8 tiles: eight segments per frame.
SEGMENTED = GPUConfig(screen_width=512, screen_height=256)


def frame_store(store_dir, config, alias="SWa"):
    """The store a runner over ``store_dir`` keeps ``alias``'s frame in."""
    return ExperimentRunner(config, store_dir=store_dir).chunk_store_for(alias)


def kept(store_dir, config, alias="SWa", stream="batch"):
    """A fresh runner over ``store_dir`` after it kept ``alias``'s trace:
    ``(trace, runner)``."""
    runner = ExperimentRunner(
        config, games=[alias], store_dir=store_dir, stream=stream
    )
    return runner.trace_for(alias), runner


def drop_records(store):
    """Delete a frame's schedule records, so that its next replay has to
    read (or heal) its segments again."""
    for path in store.directory.glob("*.work"):
        path.unlink()


def read_segment(store, index=0):
    """The record reader's verdict on one segment: raises on damage."""
    return checkpoint._read_record(
        store.segment_path(index), f"{store.key}:s{index}",
        key=store.key, segment=index,
    )


def first_segment(config):
    """The tiles of a grid's segment 0."""
    (tiles, *_), _ = segment_layout(config.tiles_x, config.tiles_y)
    return tiles


@pytest.fixture()
def store_dir(tmp_path):
    return tmp_path / "traces"


@pytest.fixture()
def store(store_dir, tiny_config):
    """SWa's frame store, empty."""
    return frame_store(store_dir, tiny_config)


@pytest.fixture()
def rendered(monkeypatch):
    """The tile count of every render a stream traversal makes."""
    counts = []
    render = StreamingTileStream._render

    def spy(stream, tiles, held):
        counts.append(len(tiles))
        return render(stream, tiles, held)

    monkeypatch.setattr(StreamingTileStream, "_render", spy)
    return counts


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

    def test_config_hash_sensitivity(self, tiny_config, small_config):
        assert config_hash(tiny_config) != config_hash(small_config)
        assert config_hash(tiny_config) == config_hash(
            dataclasses.replace(tiny_config)
        )


class TestRoundTrip:
    def test_replay_results_identical(self, store_dir, tiny_config, game_trace):
        cold, _ = kept(store_dir, tiny_config)
        loaded, runner = kept(store_dir, tiny_config)
        assert cold == loaded == game_trace
        assert runner.renders_performed == 0
        replayer = TraceReplayer(tiny_config)
        for design in (BASELINE, DTEXL_BEST):
            original = replayer.run(game_trace, design)
            reloaded = replayer.run(loaded, design)
            assert reloaded == original

    def test_contains(self, store_dir, store, tiny_config, game_trace):
        """A frame loads once it is saved and sealed with its stats."""
        assert store.manifest() is None
        _, cold = kept(store_dir, tiny_config)
        assert cold.renders_performed == 1
        assert store.manifest()["stats"] == dataclasses.asdict(
            game_trace.stats
        )
        loaded, warm = kept(store_dir, tiny_config)
        assert loaded == game_trace
        assert warm.renders_performed == 0

    def test_missing_checkpoint_is_a_miss(
        self, store_dir, store, tiny_config, game_trace, rendered
    ):
        kept(store_dir, tiny_config)
        store.segment_path(0).unlink()
        rendered.clear()
        loaded, runner = kept(store_dir, tiny_config)
        assert loaded == game_trace
        assert runner.renders_performed == 1
        assert sum(rendered) == len(first_segment(tiny_config))
        assert store.segment_path(0).is_file()  # healed


class TestTamperDetection:
    """A damaged segment fails the record reader and loads as a miss:
    the batch runner re-renders its tiles and heals it."""

    @staticmethod
    def _saved(store_dir, store, config):
        kept(store_dir, config)
        return store.segment_path(0)

    @staticmethod
    def _heals(store_dir, config, trace, rendered):
        rendered.clear()
        loaded, runner = kept(store_dir, config)
        assert loaded == trace
        assert runner.renders_performed == 1
        assert sum(rendered) == len(first_segment(config))
        loaded, runner = kept(store_dir, config)
        assert loaded == trace
        assert runner.renders_performed == 0

    def test_flipped_payload_byte(
        self, store_dir, store, tiny_config, game_trace, rendered
    ):
        path = self._saved(store_dir, store, tiny_config)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceIntegrityError, match="hash mismatch"):
            read_segment(store)
        self._heals(store_dir, tiny_config, game_trace, rendered)

    def test_truncated_payload(
        self, store_dir, store, tiny_config, game_trace, rendered
    ):
        path = self._saved(store_dir, store, tiny_config)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TraceIntegrityError):
            read_segment(store)
        self._heals(store_dir, tiny_config, game_trace, rendered)

    def test_corrupt_header(
        self, store_dir, store, tiny_config, game_trace, rendered
    ):
        path = self._saved(store_dir, store, tiny_config)
        blob = path.read_bytes()
        path.write_bytes(b"not json at all\n" + blob.split(b"\n", 1)[1])
        with pytest.raises(TraceIntegrityError):
            read_segment(store)
        self._heals(store_dir, tiny_config, game_trace, rendered)

    @pytest.mark.parametrize("header", [b"[]", b"7"])
    def test_non_object_header(
        self, store_dir, store, tiny_config, game_trace, rendered, header
    ):
        path = self._saved(store_dir, store, tiny_config)
        payload = path.read_bytes().split(b"\n", 1)[1]
        path.write_bytes(header + b"\n" + payload)
        with pytest.raises(TraceIntegrityError, match="corrupt header"):
            read_segment(store)
        self._heals(store_dir, tiny_config, game_trace, rendered)

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

    def test_key_mismatch(self, store_dir, store, tmp_path, tiny_config):
        path = self._saved(store_dir, store, tiny_config)
        other = TileChunkStore(tmp_path / "other", "0" * 64)
        shutil.copy(path, other.segment_path(0))
        with pytest.raises(TraceIntegrityError, match="written for key"):
            read_segment(other)
        assert other.load_tile(0, first_segment(tiny_config)) is None

    def test_wrong_version(
        self, store_dir, store, tiny_config, game_trace, rendered
    ):
        path = self._saved(store_dir, store, tiny_config)
        header_line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["version"] = 99
        path.write_bytes(
            json.dumps(header, sort_keys=True).encode() + b"\n" + payload
        )
        with pytest.raises(TraceIntegrityError, match="version"):
            read_segment(store)
        self._heals(store_dir, tiny_config, game_trace, rendered)


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
        # A chunked streaming replay seals the render's totals into the
        # frame meta, and a batch load of the frame verifies them off
        # the columns too.
        runner = ExperimentRunner(
            tiny_config, games=["SWa"], stream="streaming",
            store_dir=tmp_path / "traces",
        )
        assert runner.run("SWa", BASELINE) == result
        store = runner.chunk_store_for("SWa")
        meta = store.frame_meta()
        assert meta["num_quads"] == game_trace.stats.num_quads
        assert meta["pixels_shaded"] == game_trace.stats.pixels_shaded
        loaded, reader = kept(tmp_path / "traces", tiny_config)
        assert loaded == game_trace
        assert reader.renders_performed == 0


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
        kept(store_dir, tiny_config)
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
        assert store.load_tile(0, first_segment(tiny_config)) is None
        runner = ExperimentRunner(
            tiny_config, games=["SWa"], store_dir=store_dir
        )
        assert runner.trace_for("SWa") == game_trace
        assert runner.renders_performed == 1
        # The re-render replaced the stale segment with a loadable one.
        loaded, reader = kept(store_dir, tiny_config)
        assert loaded == game_trace
        assert reader.renders_performed == 0

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
        for alias in writer.games:
            drop_records(writer.chunk_store_for(alias))
        reader = runner(second)
        assert [reader.run(alias, DTEXL_BEST) for alias in reader.games] == (
            want
        )
        assert [reader.run(alias, BASELINE) for alias in reader.games] == [
            writer.run(alias, BASELINE) for alias in writer.games
        ]
        assert reader.renders_performed == 0
        assert not list(tmp_path.rglob("*.trace"))


def segment_files(store):
    """Every segment file of a store's frame: ``{name: bytes}``."""
    return {
        path.name: path.read_bytes()
        for path in sorted(store.directory.glob("*.seg"))
    }


class TestLoadedTraceEqualsTheRender:
    """For every game at 512x256, the batch runner's kept traversal is
    the batch render with no store, a cold store or a warm one, and
    over a frame a streamed replay sealed: equal, in its tile order,
    with its dtypes, its digest and its replays.  Both drivers write the
    same files."""

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
        loads = [
            kept(store_dir, SEGMENTED, alias)
            for store_dir in (None, tmp_path / "batch", tmp_path / "batch")
        ]
        streaming = ExperimentRunner(
            SEGMENTED, games=[alias], store_dir=tmp_path / "streaming",
            stream="streaming",
        )
        stream = streaming.stream_for(alias)
        assert replayer.run_stream(stream, DTEXL_BEST) == want[DTEXL_BEST]
        assert stream.stats == trace.stats  # z_cull_rate included
        loads.append(kept(tmp_path / "streaming", SEGMENTED, alias))
        assert [runner.renders_performed for _, runner in loads] == [
            1, 1, 0, 0,
        ]
        batch = frame_store(tmp_path / "batch", SEGMENTED, alias)
        streamed = streaming.chunk_store_for(alias)
        assert streamed.manifest()["stats"] == dataclasses.asdict(trace.stats)
        assert batch.manifest() == streamed.manifest()
        assert segment_files(batch) == segment_files(streamed)
        assert len(segment_files(batch)) == 8
        want_digest = trace_digest(trace)
        for loaded, _ in loads:
            assert loaded == trace
            assert list(loaded.tiles) == list(trace.tiles)  # scanline
            assert column_dtypes(loaded) == column_dtypes(trace)
            assert not any(
                getattr(entry.columns, name).flags.writeable
                for entry in loaded.tiles.values()
                for name in TileQuads.FIELDS
            )
            assert trace_digest(loaded) == want_digest
            for design, result in want.items():
                assert replayer.run(loaded, design) == result
        for store in (batch, streamed):
            assert store.frame_meta()["digest"] == want_digest


@pytest.fixture(scope="module")
def segmented_trace():
    """SWa at 512x256, eight segments, rendered once."""
    trace, _ = FrameRenderer(SEGMENTED).render(build_game("SWa", SEGMENTED))
    return trace


class TestCommitRecord:
    """The manifest is the commit record: segments are read only under a
    seal, and every seal carries the frame's stats."""

    @pytest.fixture()
    def loads(self, monkeypatch):
        """The segment index of every ``load_tile`` call."""
        calls = []
        load = TileChunkStore.load_tile

        def spy(store, index, tiles):
            calls.append(index)
            return load(store, index, tiles)

        monkeypatch.setattr(TileChunkStore, "load_tile", spy)
        return calls

    def test_unsealed_segments_never_load(
        self, tmp_path, segmented_trace, loads
    ):
        """Segments a killed first traversal saved before it sealed are
        never read: under either driver the next traversal renders every
        tile and seals the render's stats."""
        trace = segmented_trace
        cold = ExperimentRunner(
            SEGMENTED, games=["SWa"], store_dir=tmp_path, stream="streaming",
        )
        want = cold.run("SWa", DTEXL_BEST)
        store = cold.chunk_store_for("SWa")
        sealed = store.manifest()
        assert sealed["stats"] == dataclasses.asdict(trace.stats)
        # A first traversal killed before its seal: segments, no manifest.
        store.manifest_path().unlink()
        resumed = ExperimentRunner(
            SEGMENTED, games=["SWa"], store_dir=tmp_path, stream="streaming",
        )
        stream = resumed.stream_for("SWa")
        loads.clear()
        assert resumed.replayer.run_stream(stream, DTEXL_BEST) == want
        assert loads == []
        assert stream.tiles_rendered == SEGMENTED.num_tiles
        assert stream.stats == trace.stats
        assert store.manifest() == sealed
        store.manifest_path().unlink()
        loaded, batch = kept(tmp_path, SEGMENTED)
        assert loads == []
        assert loaded == trace
        assert batch.renders_performed == 1
        assert store.manifest() == sealed
        for driver in ("batch", "streaming"):
            drop_records(store)
            reader = ExperimentRunner(
                SEGMENTED, games=["SWa"], store_dir=tmp_path, stream=driver,
            )
            assert reader.run("SWa", DTEXL_BEST) == want
            assert reader.renders_performed == 0
        assert sorted(loads) == sorted(2 * list(range(8)))  # one each

    @pytest.mark.parametrize("driver", ["batch", "streaming"])
    def test_stats_less_manifest_reseals(
        self, tmp_path, segmented_trace, rendered, driver
    ):
        """A manifest without stats (as written before seals carried
        them) reads as unsealed: one full render and a fresh seal with
        stats, then nothing renders."""
        trace = segmented_trace
        kept(tmp_path, SEGMENTED)
        store = frame_store(tmp_path, SEGMENTED)
        sealed = store.manifest()
        rewrite_manifest(store, stats=None)
        assert store.manifest() is None
        rendered.clear()
        runner = ExperimentRunner(
            SEGMENTED, games=["SWa"], store_dir=tmp_path, stream=driver,
        )
        want = TraceReplayer(SEGMENTED).run(trace, DTEXL_BEST)
        assert runner.run("SWa", DTEXL_BEST) == want
        assert runner.renders_performed == 1
        assert sum(rendered) == SEGMENTED.num_tiles
        assert store.manifest() == sealed
        rendered.clear()
        for reader_driver in ("batch", "streaming"):
            reader = ExperimentRunner(
                SEGMENTED, games=["SWa"], store_dir=tmp_path,
                stream=reader_driver,
            )
            assert reader.run("SWa", DTEXL_BEST) == want
            assert reader.renders_performed == 0
        assert rendered == []

    @pytest.mark.parametrize("damage", ["delete", "truncate", "flip"])
    def test_batch_miss_heals_one_segment(
        self, tmp_path, segmented_trace, rendered, damage
    ):
        """A lost segment of a sealed frame costs the batch runner its 16
        tiles: only that file is rewritten, and the trace is the
        render."""
        kept(tmp_path, SEGMENTED)
        store = frame_store(tmp_path, SEGMENTED)
        paths = sorted(store.directory.glob("*.seg")) + [store.manifest_path()]
        before = {path: path.read_bytes() for path in paths}
        stamps = {path: path.stat() for path in paths}
        victim = store.segment_path(5)
        if damage == "delete":
            victim.unlink()
        elif damage == "truncate":
            victim.write_bytes(before[victim][: len(before[victim]) // 2])
        else:
            victim.write_bytes(
                before[victim][:-1] + bytes([before[victim][-1] ^ 0xFF])
            )
        rendered.clear()
        loaded, runner = kept(tmp_path, SEGMENTED)
        assert loaded == segmented_trace
        assert runner.renders_performed == 1
        assert sum(rendered) == DEFAULT_GROUP_TILES
        assert {path: path.read_bytes() for path in paths} == before
        rewritten = [
            path.name for path in paths
            if (path.stat().st_ino, path.stat().st_mtime_ns)
            != (stamps[path].st_ino, stamps[path].st_mtime_ns)
        ]
        assert rewritten == [victim.name]

    @pytest.mark.parametrize("driver", ["batch", "streaming"])
    def test_top_level_counts_that_disagree_with_the_stats_reseal(
        self, tmp_path, segmented_trace, driver
    ):
        """A manifest whose top-level ``num_quads`` disagrees with its
        stats is no seal: the next traversal renders the frame and seals
        it again, and the digest is the render's."""
        kept(tmp_path, SEGMENTED)
        store = frame_store(tmp_path, SEGMENTED)
        sealed = store.manifest()
        rewrite_manifest(store, num_quads=sealed["num_quads"] + 1)
        assert store.manifest() is None
        assert store.frame_meta() is None
        if driver == "batch":
            _, runner = kept(tmp_path, SEGMENTED)
        else:
            runner = ExperimentRunner(
                SEGMENTED, games=["SWa"], store_dir=tmp_path,
                stream="streaming",
            )
            runner.run("SWa", DTEXL_BEST)
        assert runner.renders_performed == 1
        assert store.manifest() == sealed
        assert store.frame_meta()["digest"] == trace_digest(segmented_trace)

    def test_stats_that_disagree_with_the_segments_fail_closed(
        self, tmp_path, segmented_trace
    ):
        """A sealed manifest's stats must agree with its intact segments:
        the batch runner verifies what it loads."""
        kept(tmp_path, SEGMENTED)
        store = frame_store(tmp_path, SEGMENTED)
        stats = store.manifest()["stats"]
        rewrite_manifest(
            store, num_quads=stats["num_quads"] + 1,
            stats=dict(stats, num_quads=stats["num_quads"] + 1),
        )
        assert store.manifest() is not None
        with pytest.raises(TraceIntegrityError, match="RenderStats"):
            kept(tmp_path, SEGMENTED)


class TestSealedStats:
    """A manifest whose stats are not exactly a :class:`RenderStats` is
    no seal: its frame renders once and is sealed with them."""

    @pytest.mark.parametrize("damage", [
        "missing", "extra", "string", "bool", "int-for-float", "list",
    ])
    def test_malformed_stats_rerender(
        self, tmp_path, tiny_config, game_trace, damage
    ):
        store = frame_store(tmp_path, tiny_config)
        kept(tmp_path, tiny_config)
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
        assert store.manifest() is None
        runner = ExperimentRunner(tiny_config, games=["SWa"], store_dir=tmp_path)
        assert runner.trace_for("SWa") == game_trace
        assert runner.trace_for("SWa").stats == game_trace.stats
        assert runner.renders_performed == 1
        assert store.manifest()["stats"] == good  # sealed again
        reader = ExperimentRunner(tiny_config, games=["SWa"], store_dir=tmp_path)
        assert reader.trace_for("SWa") == game_trace
        assert reader.renders_performed == 0


class TestSegmentCount:
    """A manifest that seals fewer segments than the grid has fails
    closed for every reader, not only for the streamed replay."""

    def test_too_few_sealed_segments_fail_closed(self, tmp_path):
        store = frame_store(tmp_path, SEGMENTED)
        kept(tmp_path, SEGMENTED)
        sealed = json.loads(store.manifest_path().read_text())["segments"]
        assert len(sealed) == 8
        rewrite_manifest(store, segments=sealed[:7], digest=None)
        with pytest.raises(TraceIntegrityError, match="seals 7 segments"):
            store.frame_meta()
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
