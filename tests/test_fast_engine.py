"""Differential tests for the fast replay engine.

Three layers, three equivalences, all required to be exact:

* ``Cache`` (recency lists) and ``access_set_streams`` (the grouped
  replay over exported lists) vs ``ReferenceCache`` (``OrderedDict``
  spec): identical hit/miss sequences, counters, and per-set recency
  order on randomized access streams.
* ``TraceReplayer(engine="fast")`` vs ``engine="reference"``: bit-
  identical :class:`RunResult` records per (trace, design) pair, at
  any replay chunk size, and on a hand-built trace whose L2 hits
  depend on the order of a tile's fetch and texture misses.
* ``DesignSweep.run(jobs=N)`` vs serial: identical rows, failures,
  resumed lists and manifest (minus wall time), under both stream
  drivers.

These pin the LRU loops of ``Cache.access_lines`` and
``access_set_streams`` and the chunked L2 stream order of
``_simulate_lines`` — any drift in the fast path from the executable
specification fails here.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, GPUConfig
from repro.core.dtexl import (
    BASELINE,
    DTEXL_BEST,
    PAPER_CONFIGURATIONS,
    DTexLConfig,
)
from repro.errors import ConfigError
from repro.memory.cache import (
    Cache,
    CacheStats,
    ReferenceCache,
    access_set_streams,
)
from repro.memory.hierarchy import MemoryHierarchy
from repro.raster.fragment import Quad, TileQuads
from repro.sim import replay
from repro.sim.checkpoint import TileChunkStore, trace_key
from repro.sim.driver import (
    FrameRenderer,
    FrameTrace,
    RenderStats,
    TileTraceEntry,
)
from repro.sim.experiment import CHUNK_SUBDIR, ExperimentRunner
from repro.sim.replay import ENGINES, TraceReplayer
from repro.sim.stream import BatchTileStream, StreamingTileStream
from repro.sim.sweep import TRACE_SUBDIR, DesignSweep
from repro.shader.shader_core import ShaderCore
from repro.workloads.games import GAMES


def small_cache_config(size=512, line=64, ways=2) -> CacheConfig:
    return CacheConfig("diff", size, line_bytes=line, associativity=ways)


# -- Cache vs ReferenceCache ----------------------------------------------


#: Line numbers drawn from a small pool so streams force conflicts,
#: evictions and re-references within a handful of sets.
line_streams = st.lists(st.integers(min_value=0, max_value=63),
                        min_size=0, max_size=300)
way_counts = st.sampled_from([1, 2, 4, 8])


class TestCacheDifferential:
    @given(lines=line_streams, ways=way_counts)
    @settings(max_examples=60, deadline=None)
    def test_hit_sequence_and_residency_identical(self, lines, ways):
        """Per-access hit/miss AND every set's recency order must agree.

        Comparing each set's full LRU order after every access pins the
        eviction order and the move-to-end on a hit, not just the final
        tally: a wrong victim or a hit left in place shows up as an
        order difference on the very next step.
        """
        fast = Cache(small_cache_config(ways=ways))
        ref = ReferenceCache(small_cache_config(ways=ways))
        sets, _ = fast.acquire_state()
        for line in lines:
            assert fast.access_line(line) == ref.access_line(line)
            assert sets == [list(lru) for lru in ref._sets]
            assert fast.resident_line_set() == ref.resident_line_set()

    @given(lines=line_streams, ways=way_counts)
    @settings(max_examples=60, deadline=None)
    def test_counters_identical(self, lines, ways):
        fast = Cache(small_cache_config(ways=ways))
        ref = ReferenceCache(small_cache_config(ways=ways))
        fast.access_lines(lines)
        for line in lines:
            ref.access_line(line)
        assert fast.stats == ref.stats

    @given(lines=line_streams)
    @settings(max_examples=60, deadline=None)
    def test_batched_equals_scalar(self, lines):
        """``access_lines`` is per-element ``access_line`` exactly."""
        batched = Cache(small_cache_config())
        scalar = Cache(small_cache_config())
        hits, missed = batched.access_lines(lines)
        scalar_missed = [
            line for line in lines if not scalar.access_line(line)
        ]
        assert hits == len(lines) - len(scalar_missed)
        assert missed == scalar_missed
        assert batched.stats == scalar.stats
        assert batched.resident_line_set() == scalar.resident_line_set()

    @given(
        accesses=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 63)), max_size=300
        ),
        ways=way_counts,
    )
    @settings(max_examples=60, deadline=None)
    def test_set_streams_match_reference(self, accesses, ways):
        """Grouped replay over three caches' sets == the interleaved spec.

        ``access_set_streams`` reorders the stream by set and skips
        repeats of a set's MRU line; the misses, evictions, statistics
        and every set's final recency order must still be those of the
        reference caches fed the stream one access at a time.
        """
        config = small_cache_config(ways=ways)
        fast = [Cache(config) for _ in range(3)]
        ref = [ReferenceCache(config) for _ in range(3)]
        want_missed, want_evicted = [], []
        for i, (cache, line) in enumerate(accesses):
            evictions = ref[cache].stats.evictions
            if not ref[cache].access_line(line):
                want_missed.append(i)
            if ref[cache].stats.evictions > evictions:
                want_evicted.append(i)
        num_sets = config.num_sets
        sets = [lru for cache in fast for lru in cache.acquire_state()[0]]
        owner = np.array([c for c, _ in accesses], dtype=np.int64)
        lines = np.array([line for _, line in accesses], dtype=np.int64)
        missed, evicted = access_set_streams(
            sets, ways, owner * num_sets + lines % num_sets, lines
        )
        assert missed.tolist() == want_missed
        assert sorted(evicted.tolist()) == want_evicted
        assert sets == [list(lru) for cache in ref for lru in cache._sets]
        for k, cache in enumerate(fast):
            mine = owner == k
            misses = int(mine[missed].sum())
            cache.release_state(
                int(mine.sum()) - misses, misses, int(mine[evicted].sum())
            )
            assert cache.stats == ref[k].stats

    def test_missed_lines_preserve_stream_order(self):
        cache = Cache(small_cache_config())
        _, missed = cache.access_lines([5, 3, 5, 9, 3, 11])
        assert missed == [5, 3, 9, 11]

    def test_acquire_release_roundtrip(self):
        """The exported lists are the live state; release adds stats."""
        config = small_cache_config()  # 4 sets of 2 ways
        cache = Cache(config)
        cache.access_lines([1, 5, 1])
        sets, ways = cache.acquire_state()
        assert (len(sets), ways) == (config.num_sets, config.associativity)
        assert sets[1] == [5, 1]  # least recently used first
        assert sets[0] == sets[2] == sets[3] == []
        # A loop outside the class mutates the lists in place ...
        del sets[1][0]
        sets[1].append(9)
        assert cache.probe(9 << 6) and not cache.probe(5 << 6)
        assert cache.acquire_state()[0] is sets
        # ... and release_state adds its counters to the prior ones.
        cache.release_state(hits=3, misses=1, evictions=1)
        assert cache.stats == CacheStats(
            accesses=7, hits=4, misses=3, evictions=1
        )

    def test_reset_keeps_exported_lists(self):
        """Clearing empties the same lists a replay loop holds."""
        cache = Cache(small_cache_config())
        sets, _ = cache.acquire_state()
        cache.access_lines([1, 2, 3])
        cache.reset()
        assert cache.acquire_state()[0] is sets
        assert all(lru == [] for lru in sets)
        assert cache.resident_lines == 0


# -- fast vs reference replay ---------------------------------------------


CG_COUPLED = DTexLConfig(
    name="CG-square/const/zorder/coupled",
    grouping="CG-square", assignment="const", order="zorder",
    decoupled=False,
)


class TestReplayEngineEquivalence:
    @pytest.mark.parametrize(
        "design", [BASELINE, DTEXL_BEST, CG_COUPLED],
        ids=lambda d: d.name,
    )
    def test_results_bit_identical(self, tiny_config, tiny_trace, design):
        fast = TraceReplayer(tiny_config, engine="fast")
        ref = TraceReplayer(tiny_config, engine="reference")
        got = fast.run(copy.copy(tiny_trace), design)
        assert got == ref.run(tiny_trace, design)

    def test_real_game_bit_identical(self, small_config, small_game_trace):
        fast = TraceReplayer(small_config, engine="fast")
        ref = TraceReplayer(small_config, engine="reference")
        for design in (BASELINE, DTEXL_BEST):
            assert fast.run(small_game_trace, design) == ref.run(
                small_game_trace, design
            )

    def test_warm_hierarchy_bit_identical(self, tiny_config, tiny_trace):
        """Multi-frame replays against warm caches agree too."""
        warm_fast = MemoryHierarchy(tiny_config, backend="fast")
        warm_ref = MemoryHierarchy(tiny_config, backend="reference")
        fast = TraceReplayer(tiny_config, engine="fast")
        ref = TraceReplayer(tiny_config, engine="reference")
        for _ in range(2):
            got = fast.run(tiny_trace, BASELINE, hierarchy=warm_fast)
            want = ref.run(tiny_trace, BASELINE, hierarchy=warm_ref)
            assert got == want

    def test_engine_names(self):
        assert ENGINES == ("fast", "reference")

    def test_unknown_engine_rejected(self, tiny_config):
        with pytest.raises(ConfigError, match="unknown replay engine"):
            TraceReplayer(tiny_config, engine="warp-speed")

    def test_unknown_backend_rejected(self, tiny_config):
        with pytest.raises(ConfigError, match="unknown cache backend"):
            MemoryHierarchy(tiny_config, backend="turbo")


CHUNK_DESIGNS = [
    PAPER_CONFIGURATIONS[name]
    for name in ("baseline", "HLB-flp2", "upper-bound")
]


class TestChunkedReplay:
    """The fast engine replays DEFAULT_GROUP_TILES tiles per chunk.

    Chunk boundaries must be invisible: 1-tile chunks, chunks that
    split the frame unevenly (3 of 8 tiles) and one chunk larger than
    the frame all give the reference engine's results.  ``upper-bound``
    runs one SC with a 256-set L1, so its L1 stream key differs.  Cold
    replays take a copy of the shared trace, whose memo is empty, so
    the memory half really runs at the patched chunk size.
    """

    @pytest.fixture(params=[1, 3, 9], ids=lambda n: f"chunk{n}")
    def chunk_size(self, request, monkeypatch, tiny_config):
        assert 9 > tiny_config.num_tiles
        monkeypatch.setattr(replay, "DEFAULT_GROUP_TILES", request.param)
        return request.param

    @pytest.mark.parametrize("design", CHUNK_DESIGNS, ids=lambda d: d.name)
    def test_chunk_size_never_changes_results(
        self, chunk_size, tiny_config, tiny_trace, design
    ):
        fast = TraceReplayer(tiny_config, engine="fast")
        ref = TraceReplayer(tiny_config, engine="reference")
        got = fast.run(copy.copy(tiny_trace), design)
        assert got == ref.run(tiny_trace, design)

    @pytest.mark.parametrize("design", CHUNK_DESIGNS, ids=lambda d: d.name)
    def test_warm_hierarchy_over_two_frames(
        self, chunk_size, tiny_config, tiny_trace, design
    ):
        gpu = design.effective_gpu_config(tiny_config)
        warm_fast = MemoryHierarchy(gpu, backend="fast")
        warm_ref = MemoryHierarchy(gpu, backend="reference")
        fast = TraceReplayer(tiny_config, engine="fast")
        ref = TraceReplayer(tiny_config, engine="reference")
        for _ in range(2):
            got = fast.run(tiny_trace, design, hierarchy=warm_fast)
            want = ref.run(tiny_trace, design, hierarchy=warm_ref)
            assert got == want

    @pytest.mark.parametrize("design", CHUNK_DESIGNS, ids=lambda d: d.name)
    def test_streaming_with_chunk_store(
        self, chunk_size, tmp_path, tiny_config, tiny_workload, tiny_trace,
        design,
    ):
        """Rendered-and-saved, then loaded-back tiles replay identically."""
        want = TraceReplayer(tiny_config, engine="reference").run(
            tiny_trace, design
        )
        fast = TraceReplayer(tiny_config, engine="fast")
        for rendered in (tiny_config.num_tiles, 0):
            stream = StreamingTileStream(
                FrameRenderer(tiny_config), tiny_workload,
                chunk_store=TileChunkStore(tmp_path / "chunks", "k"),
            )
            assert fast.run_stream(stream, design) == want
            assert stream.tiles_rendered == rendered

    def test_holds_at_most_one_chunk_of_tiles(
        self, monkeypatch, tiny_config, tiny_trace
    ):
        """A consumed chunk's tiles die before the stream makes the next.

        The stream hands out fresh entries and counts, before every
        unit, how many it handed out earlier are still alive.  The
        chunk being filled holds up to ``size - 1`` of them and the
        replay loop's variables the last tile of the previous chunk.
        """
        size = 3
        order = BASELINE.build_scheduler(tiny_config).tiles

        class CountingStream:
            def __init__(self):
                self.alive = []

            def open(self, _order):
                return self

            def __iter__(self):
                refs = []
                for unit in BatchTileStream(tiny_trace).open(order):
                    self.alive.append(sum(r() is not None for r in refs))
                    entry = dataclasses.replace(unit.entry)
                    refs.append(weakref.ref(entry))
                    yield unit._replace(entry=entry)

        monkeypatch.setattr(replay, "DEFAULT_GROUP_TILES", size)
        stream = CountingStream()
        TraceReplayer(tiny_config).run_stream(stream, BASELINE)
        assert len(stream.alive) == tiny_config.num_tiles
        assert max(stream.alive) == size


def l2_order_trace(config: GPUConfig) -> FrameTrace:
    """Two tiles whose L2 hits depend on the order of the L2 stream.

    The first tile in the baseline traversal fetches the Parameter
    Buffer's base line P (line 2**28, L2 set 0) and shades one quad
    touching texture lines T1..T8, which share P's L2 set and fill
    its 8 ways.  The second tile's quad touches T1 again.

    In hierarchy order (the tile's fetch misses, then its texture
    misses) T8 evicts P and the second tile's T1 hits in the L2.  Fed
    the other way round, P evicts T1 and that access misses.
    """
    l2_sets = config.l2_cache.num_sets
    fetch = 2 ** 28
    assert fetch % l2_sets == 0
    texture = tuple(
        k * l2_sets for k in range(1, config.l2_cache.associativity + 1)
    )
    first, second = BASELINE.build_scheduler(config).tiles[:2]
    tiles = {
        (x, y): TileTraceEntry()
        for x in range(config.tiles_x) for y in range(config.tiles_y)
    }
    for tile, fetch_lines, lines in (
        (first, [fetch], texture), (second, [], texture[:1]),
    ):
        quad = Quad(tile, 0, 0, 0, 0, (True,) * 4, 4, lines)
        tiles[tile] = TileTraceEntry(
            fetch_lines=fetch_lines, columns=TileQuads.from_quads([quad])
        )
    stats = RenderStats(num_quads=2, pixels_shaded=8, nonempty_tiles=2)
    return FrameTrace(config, [], tiles, stats)


class TestL2StreamOrder:
    """The chunk's L2 stream keeps each tile's fetch misses first."""

    @pytest.mark.parametrize("chunk", [1, 2], ids=lambda n: f"chunk{n}")
    def test_fetch_and_texture_share_an_l2_set(
        self, monkeypatch, tiny_config, chunk
    ):
        monkeypatch.setattr(replay, "DEFAULT_GROUP_TILES", chunk)
        trace = l2_order_trace(tiny_config)
        want = TraceReplayer(tiny_config, engine="reference").run(
            trace, BASELINE
        )
        # P, T1..T8 and T1 again reach the L2; only the last one hits.
        assert (want.l2_accesses, want.l2_misses) == (10, 9)
        got = TraceReplayer(tiny_config, engine="fast").run(trace, BASELINE)
        assert got == want


class TestQuadStream:
    """The cached per-entry columns the fast replay reads."""

    @staticmethod
    def nonempty_entry(trace):
        return next(e for e in trace.tiles.values() if len(e.columns))

    def test_stream_matches_quads(self, tiny_trace, tiny_config):
        side = tiny_config.tile_size // 2
        entry = self.nonempty_entry(tiny_trace)
        stream = entry.quad_stream(side)
        quads = entry.quads
        assert stream.slot.tolist() == [q.qy * side + q.qx for q in quads]
        assert stream.issue.tolist() == [q.compute_cycles for q in quads]
        assert stream.line_quad.tolist() == [
            i for i, q in enumerate(quads) for _ in q.texture_lines
        ]
        assert entry.columns.lines.tolist() == [
            line for q in quads for line in q.texture_lines
        ]

    def test_stream_is_cached_per_side(self, tiny_trace):
        entry = self.nonempty_entry(tiny_trace)
        assert entry.quad_stream(16) is entry.quad_stream(16)
        first = entry.quad_stream(16)
        entry.quad_stream(8)  # side change invalidates
        assert entry.quad_stream(8) is not first

    def test_pickle_drops_derived_stream(self, tiny_trace):
        entry = self.nonempty_entry(tiny_trace)
        entry.quad_stream(16)
        clone = pickle.loads(pickle.dumps(entry))
        assert clone.columns._stream is None
        assert clone == entry

    def test_columns_are_frozen(self, tiny_trace):
        """Shared derived streams stay valid: the columns cannot change."""
        columns = self.nonempty_entry(tiny_trace).columns
        for name in columns.FIELDS:
            with pytest.raises(ValueError):
                getattr(columns, name)[:1] = 0


class TestExecuteTotals:
    def test_matches_execute_subtile(self, tiny_config):
        from repro.raster.pipeline import SubtileWork

        work = SubtileWork(num_quads=7, compute_cycles=93, stall_cycles=41)
        a = ShaderCore(tiny_config.shader)
        b = ShaderCore(tiny_config.shader)
        via_warps = a.execute_subtile(work.warp_costs())
        via_totals = b.execute_totals(
            work.num_quads, work.compute_cycles, work.stall_cycles
        )
        assert via_totals == via_warps
        assert (a.busy_cycles, a.issue_cycles, a.warps_executed) == (
            b.busy_cycles, b.issue_cycles, b.warps_executed
        )

    def test_empty_subtile(self, tiny_config):
        core = ShaderCore(tiny_config.shader)
        done = core.execute_totals(0, 0, 0)
        assert done.total_cycles == 0 and core.busy_cycles == 0


class TestCoreLut:
    def test_lut_matches_permutation(self, tiny_config):
        design = DTEXL_BEST
        scheduler = design.build_scheduler(tiny_config)
        n_cores = tiny_config.num_shader_cores
        side = scheduler.config.quads_per_tile_side
        for step in range(min(len(scheduler.tiles), 6)):
            lut = scheduler.core_lut(step, n_cores)
            perm = scheduler.permutation_at(step)
            for qy in range(side):
                for qx in range(side):
                    want = perm[scheduler.slot_of(qx, qy)] % n_cores
                    assert lut[qy * side + qx] == want


# -- serial vs parallel sweeps --------------------------------------------


PAR_SWEEP = DesignSweep(
    groupings=["FG-xshift2", "CG-square", "no-such-grouping"],
    assignments=["const"],
    orders=["zorder"],
    decoupled=[True],
)


def manifest_without_wall_time(report):
    data = report.manifest.as_dict()
    data.pop("wall_time_s")
    data.pop("phase_seconds")
    return data


class TestParallelSweep:
    #: Stream driver of every runner in the class; the subclass below
    #: reruns the class with streaming workers sharing one chunk store.
    stream = "batch"

    @pytest.fixture(scope="class")
    def serial_and_parallel(self, request, tiny_config):
        def go(jobs):
            runner = ExperimentRunner(
                tiny_config, games=["SWa", "Mze"], stream=request.cls.stream
            )
            return PAR_SWEEP.run(runner, jobs=jobs)

        return go(1), go(2)

    def test_rows_identical(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert serial.rows == parallel.rows
        assert len(serial.rows) == 2

    def test_failures_identical(self, serial_and_parallel):
        """The bad grouping fails identically under both executors."""
        serial, parallel = serial_and_parallel
        assert serial.failures == parallel.failures
        assert [f.design_point for f in parallel.failures] == [
            "no-such-grouping/const/zorder/dec"
        ]

    def test_manifests_identical_minus_wall_time(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert manifest_without_wall_time(serial) == (
            manifest_without_wall_time(parallel)
        )

    def test_parallel_manifest_stamps_phase_timings(
        self, serial_and_parallel
    ):
        """Parallel campaigns attribute wall time to pool / replay; the
        parent renders nothing, so there is no render phase."""
        _, parallel = serial_and_parallel
        phases = parallel.manifest.phase_seconds
        assert set(phases) == {"pool_startup", "replay"}
        assert all(seconds >= 0.0 for seconds in phases.values())
        assert sum(phases.values()) <= parallel.manifest.wall_time_s + 1e-6

    def test_cold_checkpointed_pool_renders_in_workers(
        self, tmp_path, tiny_config, serial_and_parallel
    ):
        """The parent renders nothing; the workers store each game's
        frame exactly once, as a segment frame sealed with its stats
        whichever driver they run, and never as a ``.trace`` file."""
        serial, _ = serial_and_parallel
        games = ["SWa", "Mze"]
        runner = ExperimentRunner(tiny_config, games=games, stream=self.stream)
        report = PAR_SWEEP.run(runner, checkpoint_dir=tmp_path, jobs=2)
        assert report.rows == serial.rows
        assert runner.renders_performed == 0
        assert not list(tmp_path.rglob("*.trace"))
        keys = sorted(trace_key(tiny_config, GAMES[g].recipe) for g in games)
        frames = tmp_path / TRACE_SUBDIR / CHUNK_SUBDIR
        assert sorted(path.name for path in frames.iterdir()) == keys
        for key in keys:
            chunks = TileChunkStore(frames / key, key)
            assert chunks.frame_meta() is not None
        reader = ExperimentRunner(
            tiny_config, games=games, store_dir=tmp_path / TRACE_SUBDIR
        )
        for alias in games:
            assert reader.trace_for(alias).stats.num_quads > 0
        assert reader.renders_performed == 0

    def test_parallel_resume_skips_completed_rows(
        self, tmp_path, tiny_config
    ):
        sweep = DesignSweep(
            groupings=["FG-xshift2", "CG-square"], assignments=["const"],
            orders=["zorder"], decoupled=[True],
        )
        ckpt = tmp_path / "ckpt"
        first = ExperimentRunner(
            tiny_config, games=["SWa"], stream=self.stream
        )
        done = sweep.run(first, checkpoint_dir=ckpt)
        second = ExperimentRunner(
            tiny_config, games=["SWa"], stream=self.stream
        )
        resumed = sweep.run(
            second, checkpoint_dir=ckpt, resume=True, jobs=2
        )
        assert resumed.rows == done.rows
        assert sorted(resumed.resumed) == sorted(
            p.name for p in sweep.design_points()
        )
        assert second.renders_performed == 0

    def test_invalid_jobs_rejected(self, tiny_config):
        runner = ExperimentRunner(
            tiny_config, games=["SWa"], stream=self.stream
        )
        with pytest.raises(ConfigError, match="jobs"):
            DesignSweep().run(runner, jobs=0)


class TestParallelStreamingSweep(TestParallelSweep):
    stream = "streaming"
