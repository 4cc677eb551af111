"""Differential tests for the streaming tile dataflow.

The non-negotiable invariant of the render→replay seam refactor: the
two stream drivers (``batch``, ``streaming``) produce **bit-identical**
:class:`RunResult`\\ s for the same frame and design point — over the
whole game suite, over randomized recipes, across tile-traversal
orders, and with or without the tile-granular chunk cache.  The batch
driver is the executable specification; streaming only changes *when*
memory and time are spent.

Also covered here: the :class:`TileWorkUnit` protocol (vertex prologue
rides the first unit only), the :class:`TileChunkStore` segment store
(its manifest, the trace digest computed on demand, segment-corruption
self-healing), how often each tile order reads a segment, when a
stream builds its scene, and the typed segment payload (canonical
bytes, exact round trips, one hash over every decoded field).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GPUConfig
from repro.core.dtexl import BASELINE, DTEXL_BEST, DTexLConfig
from repro.core.tile_order import scanline_order, z_order
from repro.errors import ConfigError, TraceIntegrityError
from repro.raster.fragment import TileQuads
from repro.sim import checkpoint, experiment
from repro.sim.checkpoint import (
    TileChunkStore,
    config_fingerprint,
    segment_layout,
    trace_digest,
)
from repro.raster.rasterizer import Rasterizer
from repro.sim.driver import DEFAULT_GROUP_TILES, FrameRenderer, TileTraceEntry
from repro.sim.experiment import ExperimentRunner
from repro.sim.replay import TraceReplayer
from repro.sim.stream import (
    STREAM_DRIVERS,
    BatchTileStream,
    StreamingTileStream,
    TileWorkUnit,
    check_driver,
)
from repro.workloads.games import build_game, game_aliases
from repro.workloads.recipe import SceneRecipe
from tests.test_checkpoint import drop_records

TINY = GPUConfig(screen_width=128, screen_height=64)

#: 8x3 tiles: more than one 16-tile raster chunk, the last one partial.
MULTI = GPUConfig(screen_width=256, screen_height=96)

#: 16x8 tiles: eight full segments of the checkpointed stream.
SEGMENTED = GPUConfig(screen_width=512, screen_height=256)

#: Orders that traverse the 4x2 grid differently, so production order
#: (scanline groups inside the render pass) never equals consumption
#: order by accident.
ORDER_POINTS = [
    BASELINE,
    DTEXL_BEST,
    DTexLConfig(name="probe-sorder", order="sorder", decoupled=True),
]


@pytest.fixture(scope="module")
def replayer():
    return TraceReplayer(TINY)


def batch_result(alias, design, replayer):
    workload = build_game(alias, TINY)
    trace, _ = FrameRenderer(TINY).render(workload)
    return replayer.run(trace, design), trace


def streaming_result(alias, design, replayer, chunk_store=None):
    workload = build_game(alias, TINY)
    stream = StreamingTileStream(
        FrameRenderer(TINY), workload, chunk_store=chunk_store
    )
    return replayer.run_stream(stream, design), stream


# -- driver equivalence ------------------------------------------------------


class TestDriverEquivalence:
    @pytest.mark.parametrize("alias", game_aliases())
    def test_streaming_matches_batch_all_games(self, alias, replayer):
        batch, _ = batch_result(alias, DTEXL_BEST, replayer)
        streamed, _ = streaming_result(alias, DTEXL_BEST, replayer)
        assert streamed == batch

    @pytest.mark.parametrize("design", ORDER_POINTS, ids=lambda d: d.name)
    def test_orders_agree_across_drivers(self, design, replayer):
        """Traversal order is the consumer's; producers must not care."""
        batch, _ = batch_result("GTr", design, replayer)
        streamed, _ = streaming_result("GTr", design, replayer)
        assert streamed == batch

    def test_streaming_stats_match_batch_trace(self, replayer):
        _, trace = batch_result("SWa", BASELINE, replayer)
        _, stream = streaming_result("SWa", BASELINE, replayer)
        assert stream.stats == trace.stats
        assert stream.tiles_rendered == TINY.tiles_x * TINY.tiles_y


class TestMultiChunkStreams:
    """Two chunks: MULTI's 24 tiles are one full 16-tile chunk and one
    partial chunk.  The batch render flushes them one at a time in
    scanline order; the streams walk them as two groups in DTexL's
    traversal."""

    @pytest.fixture(scope="class")
    def batch(self):
        trace, _ = FrameRenderer(MULTI).render(build_game("SWa", MULTI))
        return TraceReplayer(MULTI).run(trace, DTEXL_BEST), trace

    @staticmethod
    def streamed(chunk_store=None):
        stream = StreamingTileStream(
            FrameRenderer(MULTI), build_game("SWa", MULTI),
            chunk_store=chunk_store,
        )
        return TraceReplayer(MULTI).run_stream(stream, DTEXL_BEST), stream

    def test_batch_render_flushes_one_chunk_at_a_time(self, monkeypatch):
        """``render()`` finalizes each 16-tile chunk on its own, so it
        never holds more than one chunk's footprint temporaries."""
        flushed = []
        finalize = Rasterizer.finalize_quads_fast

        def spy(rasterizer, batch, pending):
            quads_by_tile = finalize(rasterizer, batch, pending)
            flushed.append(set(quads_by_tile))
            return quads_by_tile

        monkeypatch.setattr(Rasterizer, "finalize_quads_fast", spy)
        trace, _ = FrameRenderer(MULTI).render(build_game("SWa", MULTI))
        order = scanline_order(MULTI.tiles_x, MULTI.tiles_y)
        chunks = [order[:DEFAULT_GROUP_TILES], order[DEFAULT_GROUP_TILES:]]
        assert len(flushed) == len(chunks)
        for chunk, tiles in zip(chunks, flushed):
            assert tiles and tiles <= set(chunk)
        assert set.union(*flushed) == {
            tile for tile, entry in trace.tiles.items() if len(entry.columns)
        }

    def test_store_less_stream_matches_batch(self, batch):
        want, _ = batch
        result, stream = self.streamed()
        assert result == want
        assert stream.tiles_rendered == MULTI.num_tiles

    def test_cold_then_warm_chunk_store_matches_batch(self, batch, tmp_path):
        want, _ = batch
        cold, stream = self.streamed(TileChunkStore(tmp_path, "k"))
        assert cold == want
        assert stream.tiles_rendered == MULTI.num_tiles
        warm, stream = self.streamed(TileChunkStore(tmp_path, "k"))
        assert warm == want
        assert stream.tiles_rendered == 0

    def test_misses_in_both_groups_rerender_under_the_seal(
        self, batch, tmp_path
    ):
        """A deleted segment whose tiles both traversal groups consume
        re-renders whole, once, under the seal it must match: the
        manifest is not rewritten, and the healed frame's digest is the
        batch trace's."""
        want, trace = batch
        self.streamed(TileChunkStore(tmp_path, "k"))
        store = TileChunkStore(tmp_path, "k")
        order = DTEXL_BEST.build_scheduler(MULTI).tiles
        segments, segment_of = segment_layout(MULTI.tiles_x, MULTI.tiles_y)
        groups = [order[:DEFAULT_GROUP_TILES], order[DEFAULT_GROUP_TILES:]]
        assert all(1 in {segment_of[tile] for tile in g} for g in groups)
        sealed = store.manifest_path().read_bytes()
        store.segment_path(1).unlink()
        result, stream = self.streamed(store)
        assert result == want
        assert stream.tiles_rendered == len(segments[1])
        assert store.segment_path(1).is_file()
        assert store.manifest_path().read_bytes() == sealed
        assert store.frame_meta()["digest"] == trace_digest(trace)


class TestSegmentStore:
    """The segment store on a frame of several segments: SEGMENTED's
    128 tiles are eight 16-tile segments in z-order."""

    ORDERS = ("zorder", "hilbert", "sorder", "scanline")

    @pytest.fixture(scope="class")
    def trace(self):
        trace, _ = FrameRenderer(SEGMENTED).render(
            build_game("SWa", SEGMENTED)
        )
        return trace

    @staticmethod
    def design(order="hilbert"):
        return DTexLConfig(name=f"probe-{order}", order=order)

    @staticmethod
    def streamed(store, design):
        stream = StreamingTileStream(
            FrameRenderer(SEGMENTED), build_game("SWa", SEGMENTED),
            chunk_store=store,
        )
        return TraceReplayer(SEGMENTED).run_stream(stream, design), stream

    @staticmethod
    def count_calls(monkeypatch, owner, name):
        """Wrap ``owner.name`` so each call's first argument is recorded."""
        calls = []
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            calls.append(args[1] if isinstance(owner, type) else args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
        return calls

    def test_layout_cuts_z_order_into_segments(self):
        segments, segment_of = segment_layout(
            SEGMENTED.tiles_x, SEGMENTED.tiles_y
        )
        assert [tile for tiles in segments for tile in tiles] == z_order(
            SEGMENTED.tiles_x, SEGMENTED.tiles_y
        )
        assert [len(tiles) for tiles in segments] == [DEFAULT_GROUP_TILES] * 8
        assert all(
            segment_of[tile] == index
            for index, tiles in enumerate(segments) for tile in tiles
        )

    def test_traversals_compute_no_tile_digest(
        self, trace, tmp_path, monkeypatch
    ):
        want = TraceReplayer(SEGMENTED).run(trace, self.design())
        digests = self.count_calls(monkeypatch, checkpoint, "tile_digest")
        store = TileChunkStore(tmp_path, "k")
        cold, stream = self.streamed(store, self.design())
        assert (cold, stream.tiles_rendered, digests) == (
            want, SEGMENTED.num_tiles, []
        )
        warm, stream = self.streamed(store, self.design())
        assert (warm, stream.tiles_rendered, digests) == (want, 0, [])

    @pytest.mark.parametrize("order", ORDERS)
    def test_warm_replay_loads_each_segment_once(
        self, order, trace, tmp_path, monkeypatch
    ):
        self.streamed(TileChunkStore(tmp_path, "k"), self.design())
        loads = self.count_calls(monkeypatch, TileChunkStore, "load_tile")
        want = TraceReplayer(SEGMENTED).run(trace, self.design(order))
        warm, stream = self.streamed(
            TileChunkStore(tmp_path, "k"), self.design(order)
        )
        assert warm == want
        assert stream.tiles_rendered == 0
        assert sorted(loads) == list(range(8))

    def test_digest_on_demand_is_the_trace_digest_and_cached(
        self, trace, tmp_path, monkeypatch
    ):
        want = trace_digest(trace)
        store = TileChunkStore(tmp_path, "k")
        self.streamed(store, self.design())
        assert "digest" not in store.manifest()
        digests = self.count_calls(monkeypatch, checkpoint, "tile_digest")
        assert store.frame_meta()["digest"] == want
        assert len(digests) == SEGMENTED.num_tiles
        reopened = TileChunkStore(tmp_path, "k")
        assert reopened.manifest()["digest"] == want
        assert reopened.frame_meta()["digest"] == want
        assert len(digests) == SEGMENTED.num_tiles  # served from the cache

    def test_torn_segment_rerenders_its_tiles_and_reseals(
        self, trace, tmp_path
    ):
        want = TraceReplayer(SEGMENTED).run(trace, self.design("scanline"))
        self.streamed(TileChunkStore(tmp_path, "k"), self.design())
        store = TileChunkStore(tmp_path, "k")
        segments, _ = segment_layout(SEGMENTED.tiles_x, SEGMENTED.tiles_y)
        victim = store.segment_path(3)
        victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])
        assert store.load_tile(3, segments[3]) is None
        healed, stream = self.streamed(store, self.design("scanline"))
        assert healed == want
        assert stream.tiles_rendered == len(segments[3])
        assert store.load_tile(3, segments[3]) is not None
        assert store.frame_meta()["digest"] == trace_digest(trace)

    def test_segment_unlike_its_manifest_fails_closed(self, tmp_path):
        store = TileChunkStore(tmp_path, "k")
        self.streamed(store, self.design())
        segments, _ = segment_layout(SEGMENTED.tiles_x, SEGMENTED.tiles_y)
        entries, content = store.load_tile(2, segments[2])
        entries[0] = dataclasses.replace(
            entries[0], fetch_cycles=entries[0].fetch_cycles + 1
        )
        assert store.save_tile(2, segments[2], entries) != content
        assert store.load_tile(2, segments[2]) is not None  # hash-valid
        with pytest.raises(TraceIntegrityError, match="sealed manifest"):
            self.streamed(TileChunkStore(tmp_path, "k"), self.design())
        with pytest.raises(TraceIntegrityError, match="sealed manifest"):
            store.frame_meta()

    def test_version3_segment_directory_is_ignored(self, trace, tmp_path):
        """Pickled segments and the manifest of the version-3 layout in
        the store's directory are never read: the frame re-renders."""
        segments, _ = segment_layout(SEGMENTED.tiles_x, SEGMENTED.tiles_y)
        hashes = []
        for index, tiles in enumerate(segments):
            payload = pickle.dumps(
                [trace.tiles[tile] for tile in tiles],
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            sha256 = hashlib.sha256(payload).hexdigest()
            header = json.dumps({
                "key": "k", "segment": index, "version": 3,
                "tiles": [list(tile) for tile in tiles],
                "content": sha256, "sha256": sha256,
            }, sort_keys=True)
            (tmp_path / f"s{index:05d}.seg").write_bytes(
                header.encode("ascii") + b"\n" + payload
            )
            hashes.append(sha256)
        (tmp_path / "frame.json").write_text(json.dumps({
            "version": 3, "key": "k", "config": config_fingerprint(SEGMENTED),
            "vertex_lines": list(trace.vertex_lines),
            "num_quads": trace.stats.num_quads,
            "pixels_shaded": trace.stats.pixels_shaded, "segments": hashes,
        }))
        store = TileChunkStore(tmp_path, "k")
        assert store.manifest() is None
        assert store.load_tile(0, segments[0]) is None
        want = TraceReplayer(SEGMENTED).run(trace, self.design())
        result, stream = self.streamed(store, self.design())
        assert result == want
        assert stream.tiles_rendered == SEGMENTED.num_tiles
        assert store.manifest()["version"] == checkpoint.CHECKPOINT_VERSION
        assert store.frame_meta()["digest"] == trace_digest(trace)

    def test_no_segment_load_unpickles(self, trace, tmp_path, monkeypatch):
        want = TraceReplayer(SEGMENTED).run(trace, self.design())
        self.streamed(TileChunkStore(tmp_path, "k"), self.design())

        def refuse(*args, **kwargs):
            raise AssertionError("a segment load unpickled")

        monkeypatch.setattr(pickle, "loads", refuse)
        monkeypatch.setattr(pickle, "load", refuse)
        warm, stream = self.streamed(
            TileChunkStore(tmp_path, "k"), self.design()
        )
        assert (warm, stream.tiles_rendered) == (want, 0)
        meta = TileChunkStore(tmp_path, "k").frame_meta()
        assert meta["digest"] == trace_digest(trace)

    def test_scene_is_built_only_to_render(self, trace, tmp_path, monkeypatch):
        """A replay of a sealed frame builds no scene in any tile order;
        a cold replay and one with a torn segment build one each."""
        builds = []

        def build(alias, config):
            builds.append(alias)
            return build_game(alias, config)

        monkeypatch.setattr(experiment, "build_game", build)
        runner = ExperimentRunner(
            SEGMENTED, games=["SWa"], stream="streaming", store_dir=tmp_path,
        )
        replayer = TraceReplayer(SEGMENTED)
        assert runner.run("SWa", self.design()) == replayer.run(
            trace, self.design()
        )
        assert builds == ["SWa"]
        for order in self.ORDERS:
            design = self.design(order)
            assert runner.run("SWa", design) == replayer.run(trace, design)
        assert builds == ["SWa"]
        store = runner.chunk_store_for("SWa")
        victim = store.segment_path(5)
        victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])
        drop_records(store)
        runner = ExperimentRunner(
            SEGMENTED, games=["SWa"], stream="streaming", store_dir=tmp_path,
        )
        design = self.design("scanline")
        assert runner.run("SWa", design) == replayer.run(trace, design)
        assert builds == ["SWa", "SWa"]

    def test_payload_hash_covers_every_decoded_field(self, trace, tmp_path):
        """One value changed anywhere — a tile, a fetch line, the fetch
        cycles or any quad column — changes the hash ``save_tile``
        returns, so the manifest catches it."""
        store = TileChunkStore(tmp_path, "k")
        segments, _ = segment_layout(SEGMENTED.tiles_x, SEGMENTED.tiles_y)
        tiles = segments[0]
        entries = [trace.tiles[tile] for tile in tiles]
        at = next(
            index for index, entry in enumerate(entries)
            if len(entry.columns) and entry.fetch_lines
        )
        entry = entries[at]

        def swapped(replacement):
            return entries[:at] + [replacement] + entries[at + 1:]

        def column_changed(name):
            columns = dict(zip(TileQuads.FIELDS, (
                getattr(entry.columns, field) for field in TileQuads.FIELDS
            )))
            values = columns[name].copy()
            values[-1] = (
                not values[-1] if values.dtype == bool else values[-1] + 1
            )
            columns[name] = values
            return swapped(dataclasses.replace(
                entry, columns=TileQuads(entry.columns.tile, **columns)
            ))

        moved = list(tiles)
        moved[at] = (moved[at][0] + 100, moved[at][1])
        variants = {
            "tile": (moved, entries),
            "fetch line": (tiles, swapped(dataclasses.replace(
                entry, fetch_lines=entry.fetch_lines[:-1]
                + [entry.fetch_lines[-1] + 1],
            ))),
            "fetch cycles": (tiles, swapped(dataclasses.replace(
                entry, fetch_cycles=entry.fetch_cycles + 1,
            ))),
        }
        for name in TileQuads.FIELDS:
            variants[name] = (tiles, column_changed(name))
        base = store.save_tile(0, tiles, entries)
        hashes = {
            name: store.save_tile(0, changed_tiles, changed)
            for name, (changed_tiles, changed) in variants.items()
        }
        assert base not in hashes.values()
        assert len(set(hashes.values())) == len(variants)

    @pytest.mark.parametrize("damage", [
        "short column", "trailing bytes", "unknown dtype code",
        "counts shifted between tiles", "offsets that fall", "other tiles",
    ])
    def test_payload_that_does_not_add_up_is_a_miss_that_heals(
        self, damage, trace, tmp_path
    ):
        """A payload whose hash checks but whose layout does not is a
        miss like a torn segment: the stream re-renders and re-saves."""
        want = TraceReplayer(SEGMENTED).run(trace, self.design())
        self.streamed(TileChunkStore(tmp_path, "k"), self.design())
        segments, _ = segment_layout(SEGMENTED.tiles_x, SEGMENTED.tiles_y)
        tiles = segments[4]
        data = checkpoint._pack_segment(
            tiles, [trace.tiles[tile] for tile in tiles]
        )
        words = checkpoint._HEAD_WORDS + checkpoint._TILE_WORDS * len(tiles)
        index = np.frombuffer(data, "<i8", words).copy()
        columns = data[words * 8:]
        table = index[checkpoint._HEAD_WORDS:].reshape(len(tiles), -1)
        if damage == "short column":
            bad = data[:words * 8] + columns[1:]
        elif damage == "trailing bytes":
            bad = data + b"\0"
        elif damage == "offsets that fall":
            entries = [trace.tiles[tile] for tile in tiles]
            columns = entries[0].columns
            offsets = columns.line_offsets.copy()
            assert len(offsets) > 2
            offsets[1] = offsets[-1]  # quad 0 takes every line, quad 1 < 0
            fields = {
                name: getattr(columns, name) for name in TileQuads.FIELDS
            }
            fields["line_offsets"] = offsets
            bad = checkpoint._pack_segment(tiles, [dataclasses.replace(
                entries[0], columns=TileQuads(columns.tile, **fields)
            )] + entries[1:])
        else:
            if damage == "unknown dtype code":
                index[1] = len(checkpoint._INT_DTYPES)
            elif damage == "counts shifted between tiles":
                table[0, 4] += 1  # a quad moves from tile 1 to tile 0
                table[1, 4] -= 1
            else:
                table[0, 0] += 100
            bad = index.tobytes() + columns
        checkpoint._write_record(
            TileChunkStore(tmp_path, "k").segment_path(4), "k:s4", bad,
            key="k", segment=4,
        )
        store = TileChunkStore(tmp_path, "k")
        assert store.load_tile(4, tiles) is None
        healed, stream = self.streamed(store, self.design())
        assert healed == want
        assert stream.tiles_rendered == len(tiles)
        assert store.load_tile(4, tiles) is not None


# -- the typed segment payload ------------------------------------------------


def assert_round_trip(tiles, entries) -> bytes:
    """Decode equals the entries, dtypes included, and re-encodes to the
    same bytes; returns the payload."""
    data = checkpoint._pack_segment(tiles, entries)
    decoded_tiles, decoded = checkpoint._unpack_segment(data)
    assert decoded_tiles == list(tiles)
    assert decoded == list(entries)
    for loaded, given_entry in zip(decoded, entries):
        assert all(type(line) is int for line in loaded.fetch_lines)
        assert type(loaded.fetch_cycles) is int
        for name in TileQuads.FIELDS:
            # TileQuads equality ignores dtype, so compare it apart.
            assert getattr(loaded.columns, name).dtype == getattr(
                given_entry.columns, name
            ).dtype, name
    assert checkpoint._pack_segment(decoded_tiles, decoded) == data
    return data


def stored_dtypes(data, entries):
    """Each stored column's dtype string and the values stored in it."""
    codes = np.frombuffer(data, "<i8", checkpoint._HEAD_WORDS)[1:]
    values = [
        np.concatenate([getattr(entry.columns, name) for entry in entries])
        for name in checkpoint._INT_FIELDS
    ]
    values.append(np.array(
        [line for entry in entries for line in entry.fetch_lines],
        dtype=np.int64,
    ))
    stored = [
        (checkpoint._INT_DTYPES[code], column)
        for code, column in zip(codes.tolist(), values)
    ]
    return stored + [
        (checkpoint._LOD_DTYPE, None), (checkpoint._BLEND_DTYPE, None),
    ]


#: Values at every narrowing boundary, and the int64 extremes.
EDGE_INTS = (
    -1, 0, 1, 2**7 - 1, 2**7, -(2**7) - 1, 2**8 - 1, 2**8, 2**15,
    -(2**15) - 1, 2**16, 2**31, -(2**31) - 1, 2**32, -(2**63), 2**63 - 1,
)
int64s = st.one_of(
    st.sampled_from(EDGE_INTS), st.integers(-(2**63), 2**63 - 1)
)


@st.composite
def segment_entries(draw):
    """1-4 tiles, each empty or with 1-3 quads of edge-case values."""
    tiles = draw(st.lists(
        st.tuples(st.integers(0, 300), st.integers(0, 300)),
        min_size=1, max_size=4, unique=True,
    ))
    entries = []
    for tile in tiles:
        quads = draw(st.integers(0, 3))
        if quads:
            counts = draw(st.lists(
                st.integers(0, 3), min_size=quads, max_size=quads
            ))
            offsets = np.zeros(quads + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])

            def ints(size):
                return np.array(draw(st.lists(
                    int64s, min_size=size, max_size=size
                )), dtype=np.int64)

            columns = TileQuads(
                tile, *(ints(quads) for _ in range(6)),
                np.array(draw(st.lists(
                    st.floats(allow_nan=False), min_size=quads,
                    max_size=quads,
                )), dtype=np.float64),
                np.array(draw(st.lists(
                    st.booleans(), min_size=quads, max_size=quads
                )), dtype=bool),
                ints(int(offsets[-1])), offsets,
            )
        else:
            columns = TileQuads.empty()
        entries.append(TileTraceEntry(
            draw(st.lists(int64s, max_size=4)), draw(int64s), columns
        ))
    return tiles, entries


class TestSegmentPayload:
    def test_every_suite_segment_round_trips(self):
        """All 80 segments of the ten games at 512x256."""
        renderer = FrameRenderer(SEGMENTED)
        segments, _ = segment_layout(SEGMENTED.tiles_x, SEGMENTED.tiles_y)
        for alias in game_aliases():
            trace, _ = renderer.render(build_game(alias, SEGMENTED))
            for tiles in segments:
                assert_round_trip(tiles, [trace.tiles[tile] for tile in tiles])

    @given(drawn=segment_entries())
    @settings(max_examples=200, deadline=None)
    def test_drawn_entries_round_trip_in_the_smallest_dtype(self, drawn):
        tiles, entries = drawn
        data = assert_round_trip(tiles, entries)
        for dtype, values in stored_dtypes(data, entries):
            # Explicitly little-endian or byte-wide, whatever the host.
            assert dtype[0] in "<|", dtype
            if values is not None and len(values):
                fits = [
                    np.dtype(code).itemsize
                    for code in checkpoint._INT_DTYPES
                    if np.iinfo(code).min <= values.min()
                    and values.max() <= np.iinfo(code).max
                ]
                assert np.dtype(dtype).itemsize == min(fits)


# -- randomized recipes ------------------------------------------------------


recipe_params = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
        "is_3d": st.booleans(),
        "depth_complexity": st.floats(min_value=0.5, max_value=3.0),
        "blend_fraction": st.floats(min_value=0.0, max_value=1.0),
        "texture_samples": st.integers(min_value=0, max_value=3),
    }
)


class TestRandomRecipes:
    @given(params=recipe_params)
    @settings(max_examples=10, deadline=None)
    def test_random_recipe_streaming_matches_batch(self, params):
        recipe = SceneRecipe(name="prop", texture_budget_mib=0.25, **params)
        workload = recipe.build(TINY)
        replayer = TraceReplayer(TINY)
        trace, _ = FrameRenderer(TINY).render(workload)
        batch = replayer.run(trace, DTEXL_BEST)
        stream = StreamingTileStream(FrameRenderer(TINY), recipe.build(TINY))
        assert replayer.run_stream(stream, DTEXL_BEST) == batch


# -- the unit protocol -------------------------------------------------------


class TestProtocol:
    def test_stream_driver_names(self):
        assert STREAM_DRIVERS == ("batch", "streaming")
        for name in STREAM_DRIVERS:
            assert check_driver(name) == name

    def test_unknown_driver_rejected(self):
        for name in ("lazy", "overlap"):
            with pytest.raises(ConfigError, match="unknown stream driver"):
                check_driver(name)

    @pytest.mark.parametrize("kind", ["batch", "streaming"])
    def test_vertex_prologue_rides_first_unit_only(self, kind, replayer):
        workload = build_game("SWa", TINY)
        trace, _ = FrameRenderer(TINY).render(workload)
        order = DTEXL_BEST.build_scheduler(TINY).tiles
        if kind == "batch":
            stream = BatchTileStream(trace)
        else:
            stream = StreamingTileStream(FrameRenderer(TINY), workload)
        units = list(stream.open(order))
        assert [unit.tile for unit in units] == list(order)
        assert [unit.step for unit in units] == list(range(len(order)))
        assert list(units[0].vertex_lines) == list(trace.vertex_lines)
        assert all(len(unit.vertex_lines) == 0 for unit in units[1:])

    def test_batch_stream_yields_empty_entries_for_bare_tiles(self):
        """A tile the trace never filed gets a default empty entry."""
        trace, _ = FrameRenderer(TINY).render(build_game("SWa", TINY))
        bare = (0, 0)
        del trace.tiles[bare]
        order = BASELINE.build_scheduler(TINY).tiles
        for unit in BatchTileStream(trace).open(order):
            assert isinstance(unit, TileWorkUnit)
            if unit.tile == bare:
                assert len(unit.entry.fetch_lines) == 0
                assert len(unit.entry.quads) == 0

    def test_streaming_drops_tile_pass_when_traversal_ends(self):
        """The frame's render state must not outlive the traversal."""
        stream = StreamingTileStream(
            FrameRenderer(TINY), build_game("SWa", TINY)
        )
        units = iter(stream.open(BASELINE.build_scheduler(TINY).tiles))
        next(units)
        assert stream._pass is not None
        for _ in units:
            pass
        assert stream._pass is None


# -- tile-granular chunk cache ----------------------------------------------


class TestChunkStore:
    def test_chunk_chain_terminates_in_trace_digest(self, tmp_path, replayer):
        """The store's sealed digest IS the batch trace digest, and a
        kept scanline traversal of the sealed frame is the trace."""
        batch, trace = batch_result("SWa", BASELINE, replayer)
        store = TileChunkStore(tmp_path / "chunks", "k1")
        streamed, stream = streaming_result(
            "SWa", BASELINE, replayer, chunk_store=store
        )
        assert streamed == batch
        assert store.frame_meta()["digest"] == trace_digest(trace)
        warm = StreamingTileStream(
            FrameRenderer(TINY), build_game("SWa", TINY), chunk_store=store
        )
        units = list(warm.open(scanline_order(TINY.tiles_x, TINY.tiles_y)))
        assert warm.tiles_rendered == 0
        assert units[0].vertex_lines == list(trace.vertex_lines)
        assert {unit.tile: unit.entry for unit in units} == trace.tiles

    def test_second_replay_loads_every_chunk(self, tmp_path, replayer):
        store = TileChunkStore(tmp_path / "chunks", "k1")
        first, s1 = streaming_result(
            "SWa", DTEXL_BEST, replayer, chunk_store=store
        )
        assert s1.tiles_rendered == TINY.tiles_x * TINY.tiles_y
        second, s2 = streaming_result(
            "SWa", DTEXL_BEST, replayer,
            chunk_store=TileChunkStore(tmp_path / "chunks", "k1"),
        )
        assert second == first
        assert s2.tiles_rendered == 0

    def test_corrupt_chunk_self_heals(self, tmp_path, replayer):
        store = TileChunkStore(tmp_path / "chunks", "k1")
        first, _ = streaming_result(
            "SWa", BASELINE, replayer, chunk_store=store
        )
        victim = store.segment_path(0)
        payload = victim.read_bytes()
        victim.write_bytes(payload[: len(payload) // 2])
        healed_store = TileChunkStore(tmp_path / "chunks", "k1")
        healed, stream = streaming_result(
            "SWa", BASELINE, replayer, chunk_store=healed_store
        )
        assert healed == first
        (tiles,), _ = segment_layout(TINY.tiles_x, TINY.tiles_y)
        assert stream.tiles_rendered == len(tiles)  # the torn segment
        assert healed_store.load_tile(0, tiles) is not None  # re-saved

    def test_tampered_frame_meta_is_caught(self, tmp_path, replayer):
        store = TileChunkStore(tmp_path / "chunks", "k1")
        streaming_result("SWa", BASELINE, replayer, chunk_store=store)
        manifest = store.manifest()
        manifest["segments"][0] = "0" * 64
        store.manifest_path().write_text(json.dumps(manifest))
        with pytest.raises(TraceIntegrityError, match="sealed manifest"):
            streaming_result(
                "SWa", BASELINE, replayer,
                chunk_store=TileChunkStore(tmp_path / "chunks", "k1"),
            )

    def test_load_rejects_wrong_key(self, tmp_path, replayer):
        store = TileChunkStore(tmp_path / "chunks", "k1")
        streaming_result("SWa", BASELINE, replayer, chunk_store=store)
        other = TileChunkStore(tmp_path / "chunks", "k2")
        (tiles,), _ = segment_layout(TINY.tiles_x, TINY.tiles_y)
        assert store.load_tile(0, tiles) is not None
        assert other.load_tile(0, tiles) is None
        assert other.frame_meta() is None


# -- experiment-runner integration -------------------------------------------


class TestRunnerStreams:
    @pytest.mark.parametrize("stream", STREAM_DRIVERS)
    def test_runner_results_identical(self, stream):
        runner = ExperimentRunner(TINY, games=["SWa"], stream=stream)
        result = runner.run("SWa", DTEXL_BEST)
        reference = ExperimentRunner(TINY, games=["SWa"]).run(
            "SWa", DTEXL_BEST
        )
        assert result == reference

    def test_runner_rejects_unknown_stream(self):
        for name in ("turbo", "overlap"):
            with pytest.raises(ConfigError, match="unknown stream driver"):
                ExperimentRunner(TINY, stream=name)

    @pytest.mark.parametrize("stream", STREAM_DRIVERS)
    def test_serial_sweep_stamps_the_replay_phase(self, stream):
        """A serial campaign stamps one ``replay`` phase, whichever
        driver feeds it (the pool adds ``pool_startup`` before it)."""
        from repro.sim.sweep import DesignSweep

        runner = ExperimentRunner(TINY, games=["SWa"], stream=stream)
        report = DesignSweep(groupings=["CG-square"], decoupled=[True]).run(
            runner, jobs=1
        )
        phases = report.manifest.phase_seconds
        assert set(phases) == {"replay"}
        assert 0.0 < phases["replay"] <= report.manifest.wall_time_s

    def test_chunked_runner_renders_once_across_design_points(self, tmp_path):
        store_dir = tmp_path / "traces"
        runner = ExperimentRunner(
            TINY, games=["SWa"], store_dir=store_dir, stream="streaming"
        )
        runner.run("SWa", BASELINE)
        runner.run("SWa", DTEXL_BEST)
        assert runner.renders_performed == 1
        fresh = ExperimentRunner(
            TINY, games=["SWa"], store_dir=store_dir, stream="streaming"
        )
        fresh.run("SWa", BASELINE)
        assert fresh.renders_performed == 0
