"""Tests for the ASCII visualizations."""

import pytest

from repro.analysis.visualize import (
    render_assignment_ascii,
    render_grouping_ascii,
    render_schedule_ascii,
    render_tile_order_ascii,
)
from repro.config import GPUConfig
from repro.core.quad_grouping import get_grouping
from repro.core.scheduler import QuadScheduler
from repro.core.subtile_assignment import get_assignment
from repro.core.tile_order import s_order


@pytest.fixture
def scheduler():
    config = GPUConfig(screen_width=128, screen_height=64)
    return QuadScheduler(
        config=config,
        grouping=get_grouping("CG-square"),
        assignment=get_assignment("flp1"),
        order_name="sorder",
    )


class TestGroupingArt:
    def test_grid_dimensions(self):
        art = render_grouping_ascii(get_grouping("CG-square"), side=8)
        lines = art.splitlines()
        assert len(lines) == 9  # header + 8 rows
        assert all(len(line) == 8 for line in lines[1:])

    def test_quadrants_render_distinctly(self):
        art = render_grouping_ascii(get_grouping("CG-square"), side=4)
        rows = art.splitlines()[1:]
        assert rows[0] == "0011"
        assert rows[3] == "2233"

    def test_fine_grained_uses_all_glyphs(self):
        art = render_grouping_ascii(get_grouping("FG-xshift2"), side=8)
        body = "".join(art.splitlines()[1:])
        assert set(body) == {"0", "1", "2", "3"}


class TestTileOrderArt:
    def test_sequence_numbers_placed(self):
        order = s_order(3, 2)
        art = render_tile_order_ascii(order, 3, 2)
        lines = art.splitlines()
        assert lines[0].split() == ["0", "3", "4"]
        assert lines[1].split() == ["1", "2", "5"]


class TestAssignmentArt:
    def test_steps_side_by_side(self, scheduler):
        art = render_assignment_ascii(scheduler, [0, 1], side=4)
        assert "step 0" in art
        assert "step 1" in art

    def test_flip_visible_between_adjacent_tiles(self, scheduler):
        art = render_assignment_ascii(scheduler, [0, 1], side=4)
        lines = art.splitlines()
        # Step 0 top row starts with SC0; step 1 (below, flipped) with SC2.
        first_grid_row = lines[1]
        assert first_grid_row.split()[0].startswith("0")
        assert first_grid_row.split()[1].startswith("2")


class TestScheduleOverview:
    def test_contains_all_sections(self, scheduler):
        art = render_schedule_ascii(scheduler, max_tiles=3)
        assert "CG-square" in art
        assert "tile order 'sorder'" in art
        assert "subtile assignment 'flp1'" in art

    def test_respects_max_tiles(self, scheduler):
        art = render_schedule_ascii(scheduler, max_tiles=2)
        assert "step 1" in art
        assert "step 2" not in art

