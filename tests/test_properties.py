"""Cross-cutting property-based tests on system invariants."""

from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GPUConfig
from repro.raster.pipeline import RasterPipelineModel, SubtileWork, TileWork


def build_tiles(spec):
    """spec: list of 4-tuples of (quads, compute/quad, stall/quad)."""
    tiles = []
    for step, per_sc in enumerate(spec):
        subtiles = []
        for quads, compute, stall in per_sc:
            work = SubtileWork()
            for _ in range(quads):
                work.add_quad(compute, stall)
            subtiles.append(work)
        tiles.append(
            TileWork(tile=(step, 0), step=step, fetch_cycles=1,
                     subtiles=subtiles)
        )
    return tiles


def fifo_timing(spec, fifo_depth, decoupled):
    """One frame's timing with a ``fifo_depth``-deep quad FIFO."""
    config = GPUConfig(
        screen_width=128, screen_height=64, fifo_depth=fifo_depth
    )
    return RasterPipelineModel(config, decoupled).simulate(build_tiles(spec))


subtile_spec = st.tuples(
    st.integers(min_value=0, max_value=40),   # quads
    st.integers(min_value=1, max_value=30),   # compute per quad
    st.integers(min_value=0, max_value=60),   # stall per quad
)
tile_spec = st.tuples(subtile_spec, subtile_spec, subtile_spec, subtile_spec)
frame_spec = st.lists(tile_spec, min_size=1, max_size=12)


class TestPipelineInvariants:
    @given(frame_spec)
    @settings(max_examples=40, deadline=None)
    def test_decoupled_never_slower_than_coupled(self, spec):
        """The paper's architectural claim, as a universal property."""
        config = GPUConfig(screen_width=128, screen_height=64)
        tiles = build_tiles(spec)
        coupled = RasterPipelineModel(config, decoupled=False).simulate(tiles)
        decoupled = RasterPipelineModel(config, decoupled=True).simulate(tiles)
        assert decoupled.total_cycles <= coupled.total_cycles

    @given(frame_spec)
    @settings(max_examples=40, deadline=None)
    def test_frame_time_at_least_busiest_core(self, spec):
        config = GPUConfig(screen_width=128, screen_height=64)
        tiles = build_tiles(spec)
        for decoupled in (False, True):
            timing = RasterPipelineModel(config, decoupled).simulate(tiles)
            assert timing.total_cycles >= max(timing.sc_busy_cycles)

    @given(frame_spec)
    @settings(max_examples=30, deadline=None)
    def test_adding_work_never_speeds_up(self, spec):
        """Monotonicity: extra quads cannot shorten the frame."""
        config = GPUConfig(screen_width=128, screen_height=64)
        light = build_tiles(spec)
        heavy_spec = [
            tuple((q + 2, c, s) for q, c, s in per_sc) for per_sc in spec
        ]
        heavy = build_tiles(heavy_spec)
        for decoupled in (False, True):
            a = RasterPipelineModel(config, decoupled).simulate(light)
            b = RasterPipelineModel(config, decoupled).simulate(heavy)
            assert b.total_cycles >= a.total_cycles

    # The FIFO gate: tile t's Fragment starts wait until every unit has
    # started tile t - fifo_depth.

    @given(frame_spec, st.integers(1, 14), st.integers(0, 14))
    @settings(max_examples=40, deadline=None)
    def test_deeper_fifo_never_slows_decoupled(self, spec, depth, extra):
        shallow = fifo_timing(spec, depth, decoupled=True)
        deep = fifo_timing(spec, depth + extra, decoupled=True)
        assert deep.total_cycles <= shallow.total_cycles

    @given(frame_spec, st.integers(1, 14), st.integers(1, 14))
    @settings(max_examples=30, deadline=None)
    def test_coupled_ignores_fifo_depth(self, spec, depth_a, depth_b):
        assert fifo_timing(spec, depth_a, decoupled=False) == fifo_timing(
            spec, depth_b, decoupled=False
        )

    @given(frame_spec, st.integers(0, 14))
    @settings(max_examples=30, deadline=None)
    def test_fifo_as_deep_as_the_frame_gates_nothing(self, spec, extra):
        exact = fifo_timing(spec, len(spec), decoupled=True)
        assert fifo_timing(spec, len(spec) + extra, decoupled=True) == exact


class TestSchedulerInvariants:
    def test_every_tile_splits_quads_equally(self):
        """Every (grouping x assignment x order): a full tile gives each
        SC exactly a quarter of the quads — the Z-Buffer banks are equal
        sized, so this is a hardware requirement, not a preference.  The
        fast engine's ``core_lut`` row is, quad for quad, the reference
        engine's ``perm[slot_of(qx, qy)]``, folded modulo the SC count."""
        from repro.core.quad_grouping import GROUPINGS, get_grouping
        from repro.core.scheduler import QuadScheduler
        from repro.core.subtile_assignment import ASSIGNMENTS, get_assignment
        from repro.core.tile_order import TILE_ORDERS

        config = GPUConfig(screen_width=128, screen_height=64)
        side = config.quads_per_tile_side
        cores = config.num_shader_cores
        for grouping, assignment, order in product(
            GROUPINGS, ASSIGNMENTS, TILE_ORDERS
        ):
            scheduler = QuadScheduler(
                config=config,
                grouping=get_grouping(grouping),
                assignment=get_assignment(assignment),
                order_name=order,
            )
            case = (grouping, assignment, order)
            for step in range(scheduler.num_steps):
                perm = scheduler.permutation_at(step)
                want = [
                    perm[scheduler.slot_of(qx, qy)]
                    for qy in range(side) for qx in range(side)
                ]
                lut = scheduler.core_lut(step, cores)
                assert lut.tolist() == want, (case, step)
                assert scheduler.core_lut(step, 1).tolist() == [0] * len(want)
                counts = np.bincount(lut, minlength=cores).tolist()
                assert counts == [side * side // 4] * cores, (case, step)


class TestSamplerInvariants:
    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_trilinear_superset_of_bilinear_at_level(self, u, v, level):
        from repro.texture.sampler import FilterMode, Sampler
        from repro.texture.texture import Texture

        texture = Texture(0, 128, 128, base_address=1 << 28)
        bilinear = Sampler(FilterMode.BILINEAR).footprint(
            texture, u, v, float(level)
        )
        trilinear = Sampler(FilterMode.TRILINEAR).footprint(
            texture, u, v, float(level) + 0.5
        )
        assert set(bilinear.lines) <= set(trilinear.lines)


class TestEnergyInvariants:
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=30, deadline=None)
    def test_energy_monotone_in_l2_accesses(self, low, extra):
        from repro.power.energy_model import EnergyModel

        model = EnergyModel()
        def total(l2):
            return model.frame_energy(
                l1_accesses=0, l2_accesses=l2, dram_accesses=0,
                vertex_accesses=0, tile_accesses=0, sc_issue_cycles=0,
                quads_processed=0, frame_cycles=1000, frequency_mhz=600,
            ).total_mj
        assert total(low + extra) >= total(low)


class TestReuseInvariants:
    @given(
        st.lists(st.integers(min_value=0, max_value=20), max_size=80),
        st.lists(st.integers(min_value=0, max_value=20), max_size=80),
    )
    @settings(max_examples=30, deadline=None)
    def test_merge_totals_additive(self, a, b):
        from repro.analysis.reuse import reuse_profile

        pa, pb = reuse_profile(a), reuse_profile(b)
        merged = pa.merge(pb)
        assert merged.total_accesses == len(a) + len(b)
        assert merged.cold_accesses == pa.cold_accesses + pb.cold_accesses
