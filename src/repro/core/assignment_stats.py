"""Schedule statistics: shared-edge capture and SC fairness.

Quantifies what Figure 8 shows qualitatively: for a given scheduler, how
often do the subtiles on the shared edge of two consecutive tiles land
on the *same* shader core (edge capture — the locality win), and how
evenly is that privilege spread over the cores (fairness — the
load-balance requirement the flip variants exist for)?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.quad_grouping import NUM_SLOTS
from repro.core.scheduler import QuadScheduler


@dataclass(frozen=True)
class ScheduleStats:
    """Edge-capture and fairness summary of one schedule."""

    #: Consecutive tile pairs that share an edge.
    adjacent_steps: int
    #: Edge-adjacent subtile pairs whose SCs match (summed over steps).
    captured_edges: int
    #: Edge-adjacent subtile pairs in total.
    total_edges: int
    #: Per-SC counts of captured edges.
    per_core_captures: Tuple[int, ...]

    @property
    def capture_rate(self) -> float:
        """Fraction of shared-edge subtile pairs kept on one SC."""
        return self.captured_edges / self.total_edges if self.total_edges else 0.0

    @property
    def fairness(self) -> float:
        """Jain's fairness index of the per-SC capture counts (1 = fair)."""
        counts = self.per_core_captures
        total = sum(counts)
        if total == 0:
            return 1.0
        squares = sum(c * c for c in counts)
        return total * total / (len(counts) * squares)


def _boundary_slot_pairs(
    scheduler: QuadScheduler, dx: int, dy: int
) -> List[Tuple[int, int]]:
    """Slot pairs facing each other across the shared edge.

    For a step of (dx, dy), returns (slot_in_prev, slot_in_cur) for each
    quad position on the shared edge.
    """
    side = scheduler.config.quads_per_tile_side
    pairs = []
    for k in range(side):
        if dx == 1:   # moving right: prev's right column, cur's left
            pairs.append((scheduler.slot_of(side - 1, k), scheduler.slot_of(0, k)))
        elif dx == -1:
            pairs.append((scheduler.slot_of(0, k), scheduler.slot_of(side - 1, k)))
        elif dy == 1:  # moving down: prev's bottom row, cur's top
            pairs.append((scheduler.slot_of(k, side - 1), scheduler.slot_of(k, 0)))
        else:
            pairs.append((scheduler.slot_of(k, 0), scheduler.slot_of(k, side - 1)))
    return pairs


def schedule_stats(scheduler: QuadScheduler) -> ScheduleStats:
    """Measure edge capture and fairness over the whole traversal."""
    adjacent_steps = 0
    captured = 0
    total = 0
    per_core = [0] * NUM_SLOTS
    tiles = scheduler.tiles
    for step in range(1, len(tiles)):
        dx = tiles[step][0] - tiles[step - 1][0]
        dy = tiles[step][1] - tiles[step - 1][1]
        if abs(dx) + abs(dy) != 1:
            continue
        adjacent_steps += 1
        prev_perm = scheduler.permutation_at(step - 1)
        cur_perm = scheduler.permutation_at(step)
        # Count unique facing subtile pairs (not per quad) so strips and
        # quadrants are comparable.
        seen = set()
        for prev_slot, cur_slot in _boundary_slot_pairs(scheduler, dx, dy):
            key = (prev_slot, cur_slot)
            if key in seen:
                continue
            seen.add(key)
            total += 1
            if prev_perm[prev_slot] == cur_perm[cur_slot]:
                captured += 1
                per_core[cur_perm[cur_slot]] += 1
    return ScheduleStats(
        adjacent_steps=adjacent_steps,
        captured_edges=captured,
        total_edges=total,
        per_core_captures=tuple(per_core),
    )
