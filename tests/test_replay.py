"""Tests for the trace replayer (pass 2) and its schedule memo."""

import copy
import dataclasses
import gc
import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, DRAMConfig, GPUConfig, ShaderConfig
from repro.core.dtexl import (
    BASELINE,
    DTEXL_BEST,
    DTexLConfig,
    PAPER_CONFIGURATIONS,
)
from repro.errors import BudgetExceededError
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.checkpoint import trace_digest
from repro.sim.driver import FrameRenderer
from repro.sim.experiment import ExperimentRunner
from repro.sim.replay import TraceReplayer, memory_key
from repro.sim.resilience import ReplayBudget
from repro.sim.stream import BatchTileStream, StreamingTileStream
from repro.workloads.games import build_game, game_aliases


@pytest.fixture(scope="module")
def replayer(tiny_config):
    return TraceReplayer(tiny_config)


@pytest.fixture(scope="module")
def baseline_result(replayer, tiny_trace):
    return replayer.run(tiny_trace, BASELINE)


class TestAccounting:
    def test_all_quads_replayed(self, baseline_result, tiny_trace):
        assert baseline_result.total_quads == tiny_trace.total_quads

    def test_per_tile_counts_sum_to_total(self, baseline_result):
        total = sum(sum(c) for c in baseline_result.per_tile_quad_counts)
        assert total == baseline_result.total_quads

    def test_l1_accesses_equal_texture_lines(self, baseline_result, tiny_trace):
        assert baseline_result.l1_accesses == tiny_trace.total_texture_lines

    def test_l2_conservation(self, baseline_result):
        """L2 accesses = L1 misses + vertex misses + tile-cache misses."""
        assert baseline_result.l2_accesses <= (
            baseline_result.l1_accesses
            + baseline_result.vertex_accesses
            + baseline_result.tile_accesses
        )
        assert baseline_result.l2_accesses >= baseline_result.dram_accesses

    def test_timing_positive(self, baseline_result):
        assert baseline_result.frame_cycles > 0
        assert baseline_result.fps(600) > 0

    def test_energy_positive(self, baseline_result):
        assert baseline_result.energy.total_mj > 0

    def test_deterministic(self, replayer, tiny_trace):
        a = replayer.run(tiny_trace, BASELINE)
        b = replayer.run(tiny_trace, BASELINE)
        assert a.l2_accesses == b.l2_accesses
        assert a.frame_cycles == b.frame_cycles
        assert a.energy.total_mj == pytest.approx(b.energy.total_mj)


@pytest.mark.parametrize("engine", ["fast", "reference"])
@pytest.mark.parametrize("driver", ["batch", "streaming"])
class TestPassOneTraffic:
    """Pass 1 only records the Geometry Pipeline's vertex lines and each
    tile's Parameter-Buffer lines; a cold pass-2 replay drives every one
    of them through its cache, whichever engine and stream driver."""

    DESIGNS = (BASELINE, DTEXL_BEST)

    @staticmethod
    def replay(config, workload, trace, engine, driver, design):
        if driver == "batch":
            stream = BatchTileStream(trace)
        else:
            stream = StreamingTileStream(FrameRenderer(config), workload)
        return TraceReplayer(config, engine=engine).run_stream(stream, design)

    def test_vertex_fetches_go_through_the_vertex_cache(
        self, tiny_config, tiny_workload, tiny_trace, engine, driver
    ):
        for design in self.DESIGNS:
            result = self.replay(
                tiny_config, tiny_workload, tiny_trace, engine, driver, design
            )
            assert result.vertex_accesses == len(tiny_trace.vertex_lines)

    def test_fetch_traffic_goes_through_the_tile_cache(
        self, tiny_config, tiny_workload, tiny_trace, engine, driver
    ):
        fetched = sum(len(e.fetch_lines) for e in tiny_trace.tiles.values())
        assert fetched > 0
        for design in self.DESIGNS:
            result = self.replay(
                tiny_config, tiny_workload, tiny_trace, engine, driver, design
            )
            assert result.tile_accesses == fetched


class TestDesignPointOrdering:
    def test_cg_reduces_l2_vs_fg(self, replayer, tiny_trace, baseline_result):
        cg = replayer.run(tiny_trace, PAPER_CONFIGURATIONS["CG-square-coupled"])
        assert cg.l2_accesses < baseline_result.l2_accesses

    def test_cg_reduces_replication(self, replayer, tiny_trace, baseline_result):
        cg = replayer.run(tiny_trace, PAPER_CONFIGURATIONS["CG-square-coupled"])
        assert cg.l1_replication_factor < baseline_result.l1_replication_factor

    def test_upper_bound_has_lowest_l2(self, replayer, tiny_trace):
        ub = replayer.run(tiny_trace, PAPER_CONFIGURATIONS["upper-bound"])
        for name in ["Zorder-const", "HLB-flp2", "Sorder-const"]:
            other = replayer.run(tiny_trace, PAPER_CONFIGURATIONS[name])
            assert ub.l2_accesses <= other.l2_accesses

    def test_upper_bound_single_core(self, replayer, tiny_trace):
        ub = replayer.run(tiny_trace, PAPER_CONFIGURATIONS["upper-bound"])
        assert ub.l1_replication_factor == 1.0
        assert len(ub.timing.sc_busy_cycles) == 1

    def test_decoupling_does_not_change_l2(self, replayer, tiny_trace):
        coupled = replayer.run(
            tiny_trace, DTexLConfig(name="c", grouping="CG-square")
        )
        decoupled = replayer.run(
            tiny_trace,
            DTexLConfig(name="d", grouping="CG-square", decoupled=True),
        )
        assert coupled.l2_accesses == decoupled.l2_accesses

    def test_decoupling_helps_cg_runtime(self, replayer, tiny_trace):
        coupled = replayer.run(
            tiny_trace, DTexLConfig(name="c", grouping="CG-square")
        )
        decoupled = replayer.run(
            tiny_trace,
            DTexLConfig(name="d", grouping="CG-square", decoupled=True),
        )
        assert decoupled.frame_cycles < coupled.frame_cycles

    def test_fg_balances_quads_better_than_cg(
        self, small_config, small_game_trace
    ):
        """On a real game frame (clustered overdraw), coarse grouping is
        worse-balanced than the fine-grained baseline — Figures 12/15."""
        from repro.stats import per_tile_imbalance

        replayer = TraceReplayer(small_config)
        fg = replayer.run(small_game_trace, BASELINE)
        cg = replayer.run(
            small_game_trace, PAPER_CONFIGURATIONS["CG-square-coupled"]
        )
        fg_imbalance = per_tile_imbalance(fg.per_tile_quad_counts)
        cg_imbalance = per_tile_imbalance(cg.per_tile_quad_counts)
        assert cg_imbalance > 1.5 * fg_imbalance


class TestTileOrderEffects:
    def test_orders_visit_same_work(self, replayer, tiny_trace):
        results = [
            replayer.run(
                tiny_trace,
                DTexLConfig(name=o, grouping="CG-square", order=o),
            )
            for o in ("scanline", "zorder", "hilbert", "sorder")
        ]
        assert len({r.total_quads for r in results}) == 1
        assert len({r.l1_accesses for r in results}) == 1


class TestFramebufferTraffic:
    def test_write_lines_cover_every_tile(self, replayer, tiny_trace, tiny_config):
        result = replayer.run(tiny_trace, BASELINE)
        tile_lines = (
            tiny_config.tile_size ** 2 * tiny_config.color_bytes_per_pixel + 63
        ) // 64
        assert result.framebuffer_write_lines == (
            tiny_config.num_tiles * tile_lines
        )

    def test_write_traffic_schedule_independent(self, replayer, tiny_trace):
        from repro.core.dtexl import DTEXL_BEST

        base = replayer.run(tiny_trace, BASELINE)
        dtexl = replayer.run(tiny_trace, DTEXL_BEST)
        assert base.framebuffer_write_lines == dtexl.framebuffer_write_lines


# -- the two halves and the schedule memo -----------------------------------


#: Every field of the four config classes, by the replay half that
#: reads it.  A nested config field of GPUConfig is sorted field by
#: field under its own class.  :func:`memory_key` must change with
#: every memory-side field and with no timing-side one.
MEMORY_SIDE = {
    GPUConfig: {
        "screen_width", "screen_height", "tile_size", "num_shader_cores",
    },
    CacheConfig: {
        "name", "size_bytes", "line_bytes", "associativity", "hit_latency",
    },
    DRAMConfig: {"min_latency", "max_latency", "size_bytes"},
    ShaderConfig: {"miss_overhead_cycles"},
}
TIMING_SIDE = {
    GPUConfig: {
        "frequency_mhz", "voltage", "tech_nm", "fifo_depth",
        "tile_fetcher_cycles_per_primitive", "raster_quads_per_cycle",
        "stage_unit_quads_per_cycle", "flush_bytes_per_cycle",
        "color_bytes_per_pixel",
    },
    CacheConfig: set(),
    DRAMConfig: set(),
    ShaderConfig: {
        "max_warps", "issue_rate", "base_shader_cycles",
        "texture_issue_cycles",
    },
}
NESTED = {
    "vertex_cache": CacheConfig, "texture_cache": CacheConfig,
    "tile_cache": CacheConfig, "l2_cache": CacheConfig,
    "dram": DRAMConfig, "shader": ShaderConfig,
}

#: Fine and coarse grouping, two tile orders, and the single-SC upper
#: bound, whose effective config differs from the one passed in.
KEY_DESIGNS = [BASELINE, DTEXL_BEST, PAPER_CONFIGURATIONS["upper-bound"]]


def leaf_fields():
    """``(path, side)`` for every leaf field of :class:`GPUConfig`."""
    for f in dataclasses.fields(GPUConfig):
        nested = NESTED.get(f.name)
        if nested is None:
            side = "memory" if f.name in MEMORY_SIDE[GPUConfig] else "timing"
            yield (f.name,), side
            continue
        for g in dataclasses.fields(nested):
            side = "memory" if g.name in MEMORY_SIDE[nested] else "timing"
            yield (f.name, g.name), side


def perturbed(config, path):
    """``config`` with the field at ``path`` changed to a valid value."""
    head, *rest = path
    value = getattr(config, head)
    if rest:
        new = perturbed(value, rest)
    elif isinstance(value, str):
        new = value + "'"
    else:
        new = value * 2  # valid for every numeric field (sizes stay powers)
    return dataclasses.replace(config, **{head: new})


def fresh(trace):
    """A copy of ``trace`` with an empty memo, sharing its tiles."""
    copied = copy.copy(trace)
    assert copied.schedule_memo == {}
    return copied


def barrier_twin(design):
    return dataclasses.replace(
        design, name=design.name + "~", decoupled=not design.decoupled
    )


class TestMemoryKeyFields:
    def test_every_config_field_is_classified(self):
        for cls in (GPUConfig, CacheConfig, DRAMConfig, ShaderConfig):
            names = {f.name for f in dataclasses.fields(cls)}
            nested = set(NESTED) if cls is GPUConfig else set()
            memory, timing = MEMORY_SIDE[cls], TIMING_SIDE[cls]
            assert not memory & timing
            assert names == memory | timing | nested, (
                f"{cls.__name__}: unclassified {names - memory - timing}"
            )

    @pytest.mark.parametrize("design", KEY_DESIGNS, ids=lambda d: d.name)
    def test_memory_side_fields_change_the_key(self, design, tiny_config):
        key = memory_key(design, tiny_config)
        for path, side in leaf_fields():
            if side == "memory":
                changed = perturbed(tiny_config, path)
                assert memory_key(design, changed) != key, path

    @pytest.mark.parametrize("design", KEY_DESIGNS, ids=lambda d: d.name)
    def test_timing_side_fields_leave_the_memory_half(
        self, design, tiny_config, tiny_trace
    ):
        """Neither the key nor the memory half reads a timing field."""
        key = memory_key(design, tiny_config)
        want = TraceReplayer(tiny_config).replay_schedule(
            BatchTileStream(tiny_trace), design
        )
        for path, side in leaf_fields():
            if side == "timing":
                changed = perturbed(tiny_config, path)
                assert memory_key(design, changed) == key, path
                got = TraceReplayer(changed).replay_schedule(
                    BatchTileStream(tiny_trace), design
                )
                assert got == want, path

    def test_schedule_fields_change_the_key(self, tiny_config):
        key = memory_key(BASELINE, tiny_config)
        for change in (
            {"grouping": "CG-square"}, {"order": "hilbert"},
            {"upper_bound": True},
        ):
            design = dataclasses.replace(BASELINE, **change)
            assert memory_key(design, tiny_config) != key, change
        assert memory_key(barrier_twin(BASELINE), tiny_config) == key


#: The tiny grid, suite-sweep's and the paper's (Table II).
KEY_SCREENS = [(128, 64), (512, 256), (1960, 768)]
ORDERS = ("zorder", "hilbert", "sorder", "scanline")
ASSIGNMENTS = ("const", "flp1", "flp2", "flp3")


def campaign_grid():
    """perfbench's resumed campaign grid: every point decoupled."""
    return [
        DTexLConfig(
            name=f"{grouping}/{assignment}/{order}/dec", grouping=grouping,
            assignment=assignment, order=order, decoupled=True,
        )
        for grouping in ("FG-xshift2", "CG-square", "CG-yrect")
        for assignment in ("const", "flp2")
        for order in ("zorder", "hilbert")
    ]


@pytest.mark.parametrize(
    "screen", KEY_SCREENS, ids=lambda screen: "%dx%d" % screen
)
class TestContentKeys:
    """The key names the schedule's content, not its spelling."""

    @staticmethod
    def keys(config, grouping, order):
        return {
            assignment: memory_key(
                DTexLConfig("probe", grouping, assignment, order), config
            )
            for assignment in ASSIGNMENTS
        }

    def test_measured_schedule_facts(self, screen):
        config = GPUConfig(screen_width=screen[0], screen_height=screen[1])
        for order in ORDERS:
            # §III-D's flips never reorder a fine-grained grouping.
            fine = self.keys(config, "FG-xshift2", order)
            assert len(set(fine.values())) == 1, order
            yrect = self.keys(config, "CG-yrect", order)
            assert yrect["flp1"] == yrect["flp2"], order
            if order in ("zorder", "scanline"):
                # y-strips ignore these orders' horizontal steps.
                assert yrect["const"] == yrect["flp1"], order
        square = self.keys(config, "CG-square", "zorder")
        # Z-order's edge-adjacent steps are all odd: flp2 never swaps.
        assert square["flp1"] == square["flp2"]
        square = self.keys(config, "CG-square", "hilbert")
        assert square["const"] != square["flp1"]

    def test_key_counts(self, screen):
        """The 13 paper designs keep 11 keys (10 on the 4x2 grid, where
        HLB-flp3's extra flip never fires), and the campaign's 12 points
        plus the baseline give 9."""
        config = GPUConfig(screen_width=screen[0], screen_height=screen[1])
        paper = {
            memory_key(design, config)
            for design in PAPER_CONFIGURATIONS.values()
        }
        assert len(paper) == (10 if screen == (128, 64) else 11)
        campaign = {
            memory_key(design, config)
            for design in [BASELINE, *campaign_grid()]
        }
        assert len(campaign) == 9


@pytest.fixture(scope="module")
def game_traces(tiny_config):
    renderer = FrameRenderer(tiny_config)
    return {
        alias: renderer.render(build_game(alias, tiny_config))[0]
        for alias in game_aliases()
    }


class TestEqualKeysEqualWork:
    def test_every_game_shares_within_a_key(self, tiny_config, game_traces):
        """Designs with one key give one ScheduleWork on every game.

        The 13 paper designs, each one's barrier twin and the campaign
        grid: the paper's own pairs (baseline and FG-xshift2-decoupled,
        CG-square-coupled and Zorder-const), every twin and every
        assignment of FG-xshift2 share; keys that differ in the tile
        order alone (Zorder-const, HLB-const) must not.
        """
        designs = list(PAPER_CONFIGURATIONS.values())
        designs += [barrier_twin(d) for d in designs]
        designs += campaign_grid()
        groups = {}
        for design in designs:
            groups.setdefault(memory_key(design, tiny_config), []).append(
                design.name
            )
        shared = [names for names in groups.values() if len(names) > 1]
        assert ["baseline", "FG-xshift2-decoupled"] in [
            names[:2] for names in shared
        ]
        assert any(
            {"CG-square-coupled", "Zorder-const"} <= set(names)
            for names in shared
        )
        replayer = TraceReplayer(tiny_config)
        by_name = {d.name: d for d in designs}
        for alias, trace in game_traces.items():
            works = {
                name: replayer.replay_schedule(
                    BatchTileStream(trace), by_name[name]
                )
                for name in by_name
            }
            for names in groups.values():
                for name in names[1:]:
                    assert works[name] == works[names[0]], (alias, name)
            assert works["Zorder-const"] != works["HLB-const"], alias


class TestScheduleMemo:
    def test_hits_equal_fresh_replays_for_all_paper_designs(
        self, monkeypatch, tiny_config, game_traces
    ):
        """13 designs, 10 memory passes on the 4x2 grid (11 at larger
        grids, see TestContentKeys); a second pass, in reverse order, is
        all hits, and every hit equals a replay of a fresh copy."""
        trace = fresh(game_traces["CCS"])
        replayer = TraceReplayer(tiny_config)
        designs = list(PAPER_CONFIGURATIONS.values())
        first = [replayer.run(trace, d) for d in designs]
        assert len(trace.schedule_memo) == 10
        passes = []
        original = TraceReplayer.replay_schedule

        def counting(self, stream, design, hierarchy=None):
            passes.append(design.name)
            return original(self, stream, design, hierarchy)

        monkeypatch.setattr(TraceReplayer, "replay_schedule", counting)
        hits = [replayer.run(trace, d) for d in reversed(designs)]
        assert passes == []
        for design, hit, earlier in zip(reversed(designs), hits, first[::-1]):
            assert hit == earlier == replayer.run(fresh(trace), design)
        assert len(passes) == len(designs)

    @settings(max_examples=12)
    @given(
        max_warps=st.integers(1, 16),
        flush=st.sampled_from([1, 3, 4, 16, 64]),
        fifo_depth=st.integers(1, 24),
    )
    def test_timing_knobs_hit_and_equal_fresh_replays(
        self, tiny_config, game_traces, max_warps, flush, fifo_depth
    ):
        knobs = dataclasses.replace(
            tiny_config,
            shader=dataclasses.replace(
                tiny_config.shader, max_warps=max_warps
            ),
            flush_bytes_per_cycle=flush,
            fifo_depth=fifo_depth,
        )
        trace = game_traces["GTr"]
        for design in (BASELINE, DTEXL_BEST):
            TraceReplayer(tiny_config).run(trace, design)
            keys = len(trace.schedule_memo)
            hit = TraceReplayer(knobs).run(trace, design)
            assert len(trace.schedule_memo) == keys
            assert hit == TraceReplayer(knobs).run(fresh(trace), design)

    def test_results_share_no_mutable_list(self, tiny_config, tiny_trace):
        trace = fresh(tiny_trace)
        replayer = TraceReplayer(tiny_config)
        a = replayer.run(trace, BASELINE)
        b = replayer.run(trace, barrier_twin(BASELINE))
        c = replayer.run(trace, BASELINE)
        assert a == c
        for one, other in ((a, b), (a, c)):
            assert one.per_tile_quad_counts is not other.per_tile_quad_counts
            assert all(
                x is not y for x, y in zip(
                    one.per_tile_quad_counts, other.per_tile_quad_counts
                )
            )
            assert one.timing.sc_busy_cycles is not other.timing.sc_busy_cycles
        a.per_tile_quad_counts[0][0] += 1
        assert c == replayer.run(fresh(trace), BASELINE)

    def test_memo_dies_with_its_trace(self, tiny_config, tiny_trace):
        trace = fresh(tiny_trace)
        TraceReplayer(tiny_config).run(trace, BASELINE)
        (work,) = trace.schedule_memo.values()
        alive = weakref.ref(work)
        del work, trace
        gc.collect()
        assert alive() is None

    def test_copies_and_loads_start_empty(self, tmp_path, tiny_config):
        def kept():
            """SWa's trace, kept by a fresh batch runner over the store."""
            return ExperimentRunner(
                tiny_config, games=["SWa"], store_dir=tmp_path
            ).trace_for("SWa")

        trace = kept()
        digest = trace_digest(trace)
        TraceReplayer(tiny_config).run(trace, BASELINE)
        assert len(trace.schedule_memo) == 1
        others = [
            copy.copy(trace), copy.deepcopy(trace),
            dataclasses.replace(trace), pickle.loads(pickle.dumps(trace)),
            kept(),
        ]
        for other in others:
            assert other.schedule_memo == {}
            assert other == trace
        assert pickle.dumps(trace) == pickle.dumps(fresh(trace))
        assert trace_digest(trace) == digest
        assert "schedule_memo" not in repr(trace)
        assert "schedule_memo" not in {
            f.name for f in dataclasses.fields(trace)
        }

    @staticmethod
    def poisoned(trace, design, config):
        """Plant a visibly wrong memory half under ``design``'s key."""
        work = TraceReplayer(config).replay_schedule(
            BatchTileStream(trace), design
        )
        key = memory_key(design, config)
        trace.schedule_memo[key] = dataclasses.replace(
            work, stall_cycles=work.stall_cycles + 1000
        )
        return key

    def test_the_poison_shows_on_a_hit(self, tiny_config, tiny_trace):
        trace = fresh(tiny_trace)
        self.poisoned(trace, BASELINE, tiny_config)
        replayer = TraceReplayer(tiny_config)
        assert replayer.run(trace, BASELINE) != replayer.run(
            fresh(trace), BASELINE
        )

    @pytest.mark.parametrize("design", KEY_DESIGNS, ids=lambda d: d.name)
    def test_caller_hierarchy_never_reads_or_writes_it(
        self, design, tiny_config, tiny_trace
    ):
        trace = fresh(tiny_trace)
        key = self.poisoned(trace, design, tiny_config)
        poison = trace.schedule_memo[key]
        gpu = design.effective_gpu_config(tiny_config)
        replayer = TraceReplayer(tiny_config)
        cold = replayer.run(
            trace, design, hierarchy=MemoryHierarchy(gpu, backend="fast")
        )
        assert cold == replayer.run(fresh(trace), design)
        assert trace.schedule_memo == {key: poison}
        empty = fresh(trace)
        replayer.run(empty, design, hierarchy=MemoryHierarchy(gpu))
        assert empty.schedule_memo == {}

    @pytest.mark.parametrize("design", KEY_DESIGNS, ids=lambda d: d.name)
    def test_reference_engine_never_reads_or_writes_it(
        self, design, tiny_config, tiny_trace
    ):
        trace = fresh(tiny_trace)
        key = self.poisoned(trace, design, tiny_config)
        poison = trace.schedule_memo[key]
        reference = TraceReplayer(tiny_config, engine="reference")
        got = reference.run(trace, design)
        assert got == TraceReplayer(tiny_config).run(fresh(trace), design)
        assert trace.schedule_memo == {key: poison}
        empty = fresh(trace)
        reference.run(empty, design)
        assert empty.schedule_memo == {}

    @pytest.mark.parametrize(
        "make_budget",
        [
            lambda quads: ReplayBudget(max_quads=1),
            lambda quads: ReplayBudget(max_quads=quads // 2),
        ],
        ids=["first-tile", "mid-frame"],
    )
    def test_hit_raises_the_budget_error_of_a_fresh_replay(
        self, make_budget, tiny_config, tiny_trace
    ):
        trace = fresh(tiny_trace)
        TraceReplayer(tiny_config).run(trace, DTEXL_BEST)
        bounded = TraceReplayer(
            tiny_config, budget=make_budget(trace.total_quads)
        )
        with pytest.raises(BudgetExceededError) as hit:
            bounded.run(trace, DTEXL_BEST)
        with pytest.raises(BudgetExceededError) as replay:
            bounded.run(fresh(trace), DTEXL_BEST)
        assert str(hit.value) == str(replay.value)
        assert len(trace.schedule_memo) == 1
