"""Tests for the quad groupings of Figure 6."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quad_grouping import (
    COARSE_GRAINED,
    FINE_GRAINED,
    GROUPINGS,
    NUM_SLOTS,
    SubtileLayout,
    get_grouping,
)

SIDE = 16  # quads per tile side for 32x32-pixel tiles


def slot_counts(name, side=SIDE):
    counts = [0] * NUM_SLOTS
    for row in get_grouping(name).slot_map(side):
        for slot in row:
            counts[slot] += 1
    return counts


class TestRegistry:
    def test_six_fine_grained(self):
        assert len(FINE_GRAINED) == 6
        assert all(g.fine_grained for g in FINE_GRAINED.values())

    def test_four_coarse_grained(self):
        assert len(COARSE_GRAINED) == 4
        assert not any(g.fine_grained for g in COARSE_GRAINED.values())

    def test_paper_named_groupings_present(self):
        for name in ["FG-xshift2", "CG-square", "CG-yrect", "CG-xrect", "CG-tri"]:
            assert name in GROUPINGS

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_grouping("FG-nope")


class TestBalancedPartition:
    @pytest.mark.parametrize("name", sorted(GROUPINGS))
    def test_all_slots_used_equally(self, name):
        """Every grouping splits the tile into 4 equal subtiles."""
        counts = slot_counts(name)
        assert counts == [SIDE * SIDE // 4] * NUM_SLOTS

    @pytest.mark.parametrize("name", sorted(GROUPINGS))
    @pytest.mark.parametrize("side", [4, 8, 16])
    def test_slots_in_range_for_all_sides(self, name, side):
        grid = get_grouping(name).slot_map(side)
        assert len(grid) == side
        for row in grid:
            assert len(row) == side
            assert all(0 <= slot < NUM_SLOTS for slot in row)


class TestFineGrainedAdjacency:
    @pytest.mark.parametrize("name", ["FG-check", "FG-check2"])
    def test_checkerboards_never_share_4neighbours(self, name):
        grid = get_grouping(name).slot_map(SIDE)
        for qy in range(SIDE):
            for qx in range(SIDE):
                slot = grid[qy][qx]
                for dx, dy in [(1, 0), (0, 1)]:
                    nx, ny = qx + dx, qy + dy
                    if nx < SIDE and ny < SIDE:
                        assert grid[ny][nx] != slot

    def test_xshift2_horizontal_pairs(self):
        """FG-xshift2: at most one same-slot horizontal neighbour, none vertical."""
        grid = get_grouping("FG-xshift2").slot_map(SIDE)
        for qy in range(SIDE):
            for qx in range(SIDE):
                slot = grid[qy][qx]
                same_horizontal = sum(
                    1
                    for nx in (qx - 1, qx + 1)
                    if 0 <= nx < SIDE and grid[qy][nx] == slot
                )
                assert same_horizontal <= 1
                if qy + 1 < SIDE:
                    assert grid[qy + 1][qx] != slot

    def test_yshift2_is_transpose_of_xshift2(self):
        xs = get_grouping("FG-xshift2").slot_map(SIDE)
        ys = get_grouping("FG-yshift2").slot_map(SIDE)
        for qy in range(SIDE):
            for qx in range(SIDE):
                assert xs[qy][qx] == ys[qx][qy]

    def test_diag_stripes(self):
        grid = get_grouping("FG-diag").slot_map(SIDE)
        # Along an anti-diagonal, the slot is constant.
        assert grid[3][0] == grid[0][3]
        assert grid[2][1] == grid[1][2]

    def test_fine_grained_layout_interleaved(self):
        for grouping in FINE_GRAINED.values():
            assert grouping.layout is SubtileLayout.INTERLEAVED


class TestCoarseGrainedShapes:
    def test_square_quadrants(self):
        grouping = get_grouping("CG-square")
        grid = grouping.slot_map(SIDE)
        assert grid[0][0] == 0
        assert grid[0][SIDE - 1] == 1
        assert grid[SIDE - 1][0] == 2
        assert grid[SIDE - 1][SIDE - 1] == 3
        assert grouping.layout is SubtileLayout.SQUARE

    def test_xrect_vertical_strips(self):
        grouping = get_grouping("CG-xrect")
        for row in grouping.slot_map(SIDE):
            assert row[0] == 0
            assert row[SIDE - 1] == 3
        assert grouping.layout is SubtileLayout.XSTRIPS

    def test_yrect_horizontal_strips(self):
        grouping = get_grouping("CG-yrect")
        grid = grouping.slot_map(SIDE)
        assert grid[0] == [0] * SIDE
        assert grid[SIDE - 1] == [3] * SIDE
        assert grouping.layout is SubtileLayout.YSTRIPS

    def test_triangles_meet_at_center(self):
        grid = get_grouping("CG-tri").slot_map(SIDE)
        assert grid[0][SIDE // 2] == 0         # north
        assert grid[SIDE // 2][SIDE - 1] == 1  # east
        assert grid[SIDE // 2][0] == 2         # west
        assert grid[SIDE - 1][SIDE // 2] == 3  # south

    @pytest.mark.parametrize("name", sorted(COARSE_GRAINED))
    def test_coarse_groupings_are_connected_blobs(self, name):
        """Each CG subtile is 4-connected (one contiguous region)."""
        grouping = get_grouping(name)
        grid = grouping.slot_map(SIDE)
        for slot in range(NUM_SLOTS):
            cells = {
                (qx, qy)
                for qy in range(SIDE) for qx in range(SIDE)
                if grid[qy][qx] == slot
            }
            start = next(iter(cells))
            frontier, seen = [start], {start}
            while frontier:
                cx, cy = frontier.pop()
                for nx, ny in [(cx+1, cy), (cx-1, cy), (cx, cy+1), (cx, cy-1)]:
                    if (nx, ny) in cells and (nx, ny) not in seen:
                        seen.add((nx, ny))
                        frontier.append((nx, ny))
            assert seen == cells


class TestAdjacencyScore:
    def coherence(self, name):
        """Fraction of quad 4-neighbour pairs that share a slot."""
        grouping = get_grouping(name)
        grid = grouping.slot_map(SIDE)
        same = total = 0
        for qy in range(SIDE):
            for qx in range(SIDE):
                for nx, ny in [(qx + 1, qy), (qx, qy + 1)]:
                    if nx < SIDE and ny < SIDE:
                        total += 1
                        same += grid[qy][qx] == grid[ny][nx]
        return same / total

    def test_coarse_beats_fine_on_adjacency(self):
        """The premise of the paper: CG keeps adjacent quads together."""
        worst_cg = min(self.coherence(n) for n in COARSE_GRAINED)
        best_fg = max(self.coherence(n) for n in FINE_GRAINED)
        assert worst_cg > best_fg

    def test_slot_map_matches_slot(self):
        """Rows are indexed by qy: quad (0, 7) is CG-square's bottom-left."""
        grid = get_grouping("CG-square").slot_map(8)
        assert grid[7][0] == 2
        assert grid[0][7] == 1
