"""ASCII visualization of schedules, groupings, orders and assignments.

These render the paper's Figures 6, 7 and 8 for *any* configuration —
handy for understanding what a design point actually does to the screen,
and used by the ``python -m repro schedule`` CLI command.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.quad_grouping import QuadGrouping
from repro.core.scheduler import QuadScheduler
from repro.core.tile_order import TileCoord

#: Glyph per shader core / slot.
CORE_GLYPHS = "0123"


def render_grouping_ascii(grouping: QuadGrouping, side: int = 16) -> str:
    """One tile's quad -> slot map as a glyph grid (paper Figure 6)."""
    grid = grouping.slot_map(side)
    lines = [f"{grouping.name} ({side}x{side} quads)"]
    for row in grid:
        lines.append("".join(CORE_GLYPHS[slot] for slot in row))
    return "\n".join(lines)


def render_tile_order_ascii(
    order: Sequence[TileCoord], tiles_x: int, tiles_y: int
) -> str:
    """The traversal as per-tile sequence numbers (paper Figure 7)."""
    width = len(str(len(order) - 1)) if order else 1
    sequence = {tile: step for step, tile in enumerate(order)}
    lines = []
    for ty in range(tiles_y):
        lines.append(
            " ".join(
                str(sequence[(tx, ty)]).rjust(width)
                for tx in range(tiles_x)
            )
        )
    return "\n".join(lines)


def render_assignment_ascii(
    scheduler: QuadScheduler, steps: Sequence[int], side: int = 8
) -> str:
    """Subtile->SC maps of selected traversal steps (paper Figure 8)."""
    blocks: List[List[str]] = []
    for step in steps:
        grid = scheduler.core_map(step)
        stride = max(1, len(grid) // side)
        tile = scheduler.tiles[step]
        header = f"step {step} tile {tile}"
        rows = [header.ljust(side + 2)]
        for qy in range(0, len(grid), stride):
            rows.append(
                "".join(
                    CORE_GLYPHS[grid[qy][qx]]
                    for qx in range(0, len(grid[qy]), stride)
                ).ljust(side + 2)
            )
        blocks.append(rows)
    height = max(len(b) for b in blocks)
    lines = []
    for i in range(height):
        lines.append("  ".join(
            block[i] if i < len(block) else " " * len(block[0])
            for block in blocks
        ))
    return "\n".join(lines)


def render_schedule_ascii(
    scheduler: QuadScheduler, max_tiles: int = 8
) -> str:
    """Full overview of one schedule: grouping, order and assignments."""
    sections = [
        render_grouping_ascii(
            scheduler.grouping, scheduler.config.quads_per_tile_side
        ),
        "",
        f"tile order '{scheduler.order_name}' over "
        f"{scheduler.config.tiles_x}x{scheduler.config.tiles_y} tiles:",
        render_tile_order_ascii(
            scheduler.tiles, scheduler.config.tiles_x, scheduler.config.tiles_y
        ),
        "",
        f"subtile assignment '{scheduler.assignment.name}' over the first "
        f"{max_tiles} steps:",
        render_assignment_ascii(scheduler, list(range(
            min(max_tiles, scheduler.num_steps)
        ))),
    ]
    return "\n".join(sections)

