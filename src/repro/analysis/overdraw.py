"""Overdraw and depth-complexity analysis of frame traces.

§II-B grounds DTexL's load-imbalance story in scene structure: "in most
scenes, geometry is not uniformly distributed over the frame, but rather
some regions are richer than others in depth complexity", and §V-A adds
that overdraw clusters *horizontally* ("gravity forces objects to be
more horizontally shaped").  These tools measure both properties on any
trace, so the claims can be verified on the synthetic suite — and on any
new workload a user adds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.config import GPUConfig
from repro.sim.driver import FrameTrace


def shaded_pixel_map(trace: FrameTrace, config: GPUConfig) -> np.ndarray:
    """Per-pixel shaded-fragment counts (the depth-complexity map)."""
    depth_map = np.zeros(
        (config.screen_height, config.screen_width), dtype=np.int32
    )
    ts = config.tile_size
    for (tx, ty), entry in trace.tiles.items():
        for quad in entry.quads:
            px = tx * ts + quad.qx * 2
            py = ty * ts + quad.qy * 2
            for lane, (dx, dy) in enumerate(
                [(0, 0), (1, 0), (0, 1), (1, 1)]
            ):
                if not quad.coverage[lane]:
                    continue
                x, y = px + dx, py + dy
                if x < config.screen_width and y < config.screen_height:
                    depth_map[y, x] += 1
    return depth_map


@dataclass(frozen=True)
class OverdrawStats:
    """Summary of a frame's depth-complexity distribution."""

    mean: float
    peak: int
    #: Fraction of shaded fragments landing on the busiest 10% of pixels.
    concentration: float
    #: Ratio of row-to-row variance over column-to-column variance of the
    #: per-line overdraw totals; > 1 means overdraw clusters into
    #: horizontal bands (the §V-A gravity effect).
    horizontal_clustering: float


def overdraw_stats(depth_map: np.ndarray) -> OverdrawStats:
    """Summarize a depth-complexity map."""
    total = float(depth_map.sum())
    pixels = depth_map.size
    mean = total / pixels if pixels else 0.0
    peak = int(depth_map.max()) if pixels else 0

    flat = np.sort(depth_map.ravel())[::-1]
    top = max(1, pixels // 10)
    concentration = float(flat[:top].sum()) / total if total else 0.0

    row_totals = depth_map.sum(axis=1).astype(np.float64)
    col_totals = depth_map.sum(axis=0).astype(np.float64)
    # Compare normalized variation so the screen aspect ratio cancels.
    row_cv = row_totals.std() / row_totals.mean() if row_totals.mean() else 0.0
    col_cv = col_totals.std() / col_totals.mean() if col_totals.mean() else 0.0
    clustering = row_cv / col_cv if col_cv else float("inf")

    return OverdrawStats(
        mean=mean,
        peak=peak,
        concentration=concentration,
        horizontal_clustering=clustering,
    )


def overdraw_ascii(depth_map: np.ndarray, block: int = 8) -> str:
    """Coarse ASCII heatmap of the depth-complexity map."""
    ramp = " .:-=+*#%@"
    height, width = depth_map.shape
    rows: List[str] = []
    peak = depth_map.max() or 1
    for y0 in range(0, height, block):
        row = []
        for x0 in range(0, width, block):
            cell = depth_map[y0 : y0 + block, x0 : x0 + block].mean()
            level = min(int(cell / peak * (len(ramp) - 1)), len(ramp) - 1)
            row.append(ramp[level])
        rows.append("".join(row))
    return "\n".join(rows)
