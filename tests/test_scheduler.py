"""Tests for the quad scheduler (grouping + assignment + tile order)."""

import numpy as np
import pytest

from repro.config import GPUConfig
from repro.core.quad_grouping import get_grouping
from repro.core.scheduler import QuadScheduler
from repro.core.subtile_assignment import get_assignment


@pytest.fixture
def config():
    return GPUConfig(screen_width=128, screen_height=64)  # 4x2 tiles


def make_scheduler(config, grouping="CG-square", assignment="flp1",
                   order="hilbert"):
    return QuadScheduler(
        config=config,
        grouping=get_grouping(grouping),
        assignment=get_assignment(assignment),
        order_name=order,
    )


class TestStructure:
    def test_covers_all_tiles(self, config):
        scheduler = make_scheduler(config)
        assert scheduler.num_steps == config.num_tiles
        assert len(set(scheduler.tiles)) == config.num_tiles

    def test_core_of_composes_slot_and_permutation(self, config):
        """``core_lut`` holds each quad's core: its slot's binding."""
        scheduler = make_scheduler(config)
        side = config.quads_per_tile_side
        for step in (0, 3, 5):
            perm = scheduler.permutation_at(step)
            lut = scheduler.core_lut(step, config.num_shader_cores)
            for qx, qy in [(0, 0), (side - 1, 0), (3, 7)]:
                slot = scheduler.slot_of(qx, qy)
                assert lut[qy * side + qx] == perm[slot]

    def test_core_map_matches_core_of(self, config):
        scheduler = make_scheduler(config)
        grid = scheduler.core_map(2)
        lut = scheduler.core_lut(2, config.num_shader_cores)
        assert [core for row in grid for core in row] == lut.tolist()

    def test_const_assignment_keeps_slots_as_cores(self, config):
        scheduler = make_scheduler(config, assignment="const")
        side = config.quads_per_tile_side
        slots = [
            scheduler.slot_of(qx, qy)
            for qy in range(side) for qx in range(side)
        ]
        for step in range(scheduler.num_steps):
            lut = scheduler.core_lut(step, config.num_shader_cores)
            assert lut.tolist() == slots


def quad_counts(scheduler, step, occupied):
    """Shaded quads per SC for one tile, through the step's core_lut."""
    config = scheduler.config
    side = config.quads_per_tile_side
    lut = scheduler.core_lut(step, config.num_shader_cores)
    cores = [lut[qy * side + qx] for qx, qy in occupied]
    return np.bincount(cores, minlength=config.num_shader_cores).tolist()


class TestQuadCounts:
    def test_counts_sum_to_occupied(self, config):
        scheduler = make_scheduler(config)
        occupied = [(0, 0), (1, 0), (15, 15), (8, 8), (3, 12)]
        counts = quad_counts(scheduler, 0, occupied)
        assert sum(counts) == len(occupied)
        assert len(counts) == config.num_shader_cores

    def test_full_tile_balances_exactly(self, config):
        scheduler = make_scheduler(config)
        side = config.quads_per_tile_side
        occupied = [(qx, qy) for qx in range(side) for qy in range(side)]
        counts = quad_counts(scheduler, 0, occupied)
        assert counts == [side * side // 4] * 4

    def test_clustered_quads_imbalance_cg(self, config):
        """A corner cluster lands on one SC under CG-square."""
        scheduler = make_scheduler(config, grouping="CG-square")
        occupied = [(qx, qy) for qx in range(4) for qy in range(4)]
        counts = quad_counts(scheduler, 0, occupied)
        assert max(counts) == len(occupied)

    def test_clustered_quads_balanced_fg(self, config):
        """The same cluster spreads under FG-xshift2."""
        scheduler = make_scheduler(config, grouping="FG-xshift2")
        occupied = [(qx, qy) for qx in range(4) for qy in range(4)]
        counts = quad_counts(scheduler, 0, occupied)
        assert max(counts) - min(counts) <= len(occupied) // 4
