"""Differential tests for the fast replay engine.

Three layers, three equivalences, all required to be exact:

* ``Cache`` (flat arrays) vs ``ReferenceCache`` (``OrderedDict`` spec):
  identical hit/miss sequences, counters, and resident sets on
  randomized access streams.
* ``TraceReplayer(engine="fast")`` vs ``engine="reference"``: bit-
  identical :class:`RunResult` records per (trace, design) pair.
* ``DesignSweep.run(jobs=N)`` vs serial: identical rows, failures,
  resumed lists and manifest (minus wall time).

These pin the inlined LRU body in ``_tile_quads_fast`` — any drift in
the fast path from the executable specification fails here.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, GPUConfig
from repro.core.dtexl import (
    BASELINE,
    DTEXL_BEST,
    DTexLConfig,
)
from repro.errors import ConfigError
from repro.memory.cache import Cache, ReferenceCache
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.experiment import ExperimentRunner
from repro.sim.replay import ENGINES, TraceReplayer
from repro.sim.sweep import DesignSweep
from repro.shader.shader_core import ShaderCore


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
        """Per-access hit/miss AND per-step resident set must agree.

        Comparing residency after every access pins the eviction order,
        not just the final tally: a wrong victim shows up as a resident-
        set difference on the very next step.
        """
        fast = Cache(small_cache_config(ways=ways))
        ref = ReferenceCache(small_cache_config(ways=ways))
        for line in lines:
            assert fast.access_line(line) == ref.access_line(line)
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

    def test_missed_lines_preserve_stream_order(self):
        cache = Cache(small_cache_config())
        _, missed = cache.access_lines([5, 3, 5, 9, 3, 11])
        assert missed == [5, 3, 9, 11]

    def test_acquire_release_roundtrip(self):
        """State handed to an inlined loop writes back exactly."""
        cache = Cache(small_cache_config())
        cache.access_lines([1, 2, 1])
        index, ages, tags, num_sets, ways, tick = cache.acquire_state()
        assert index is cache._index and ages is cache._ages
        assert tags is cache._tags
        assert (num_sets, ways) == (cache._num_sets, cache._ways)
        assert tick == 3
        cache.release_state(tick + 4, hits=3, misses=1, evictions=1)
        assert cache._tick == 7
        assert cache.stats.accesses == 7  # 3 prior + 4 released
        assert cache.stats.hits == 4 and cache.stats.misses == 3
        assert cache.stats.evictions == 1


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
        assert fast.run(tiny_trace, design) == ref.run(tiny_trace, design)

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
    @pytest.fixture(scope="class")
    def serial_and_parallel(self, tiny_config):
        def go(jobs):
            runner = ExperimentRunner(tiny_config, games=["SWa", "Mze"])
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
        """Parallel campaigns attribute wall time to render / pool / replay."""
        _, parallel = serial_and_parallel
        phases = parallel.manifest.phase_seconds
        assert set(phases) == {"render", "pool_startup", "replay"}
        assert all(seconds >= 0.0 for seconds in phases.values())
        assert sum(phases.values()) <= parallel.wall_time_s + 1e-6

    def test_parallel_resume_skips_completed_rows(
        self, tmp_path, tiny_config
    ):
        sweep = DesignSweep(
            groupings=["FG-xshift2", "CG-square"], assignments=["const"],
            orders=["zorder"], decoupled=[True],
        )
        ckpt = tmp_path / "ckpt"
        first = ExperimentRunner(tiny_config, games=["SWa"])
        done = sweep.run(first, checkpoint_dir=ckpt)
        second = ExperimentRunner(tiny_config, games=["SWa"])
        resumed = sweep.run(
            second, checkpoint_dir=ckpt, resume=True, jobs=2
        )
        assert resumed.rows == done.rows
        assert sorted(resumed.resumed) == sorted(
            p.name for p in sweep.design_points()
        )
        assert second.renders_performed == 0

    def test_invalid_jobs_rejected(self, tiny_config):
        runner = ExperimentRunner(tiny_config, games=["SWa"])
        with pytest.raises(ConfigError, match="jobs"):
            DesignSweep().run(runner, jobs=0)

    def test_prepare_traces_requires_store(self, tiny_config):
        from repro.errors import ReplayError

        runner = ExperimentRunner(tiny_config, games=["SWa"])
        with pytest.raises(ReplayError, match="TraceCheckpointStore"):
            runner.prepare_traces()

    def test_prepare_traces_populates_store(self, tmp_path, tiny_config):
        from repro.sim.checkpoint import TraceCheckpointStore

        store = TraceCheckpointStore(tmp_path / "traces")
        runner = ExperimentRunner(tiny_config, games=["SWa"])
        keys = runner.prepare_traces(store)
        assert set(keys) == {"SWa"}
        assert all(store.contains(k) for k in keys.values())
