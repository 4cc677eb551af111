"""The quad scheduler: grouping + assignment + tile order combined.

This is the hardware block DTexL replaces: it decides, for every quad of
every tile, which Z-Buffer/Color-Buffer bank (subtile slot) and which
shader core processes it.  The decision is static per frame — exactly as
in the paper, where the mapping is a function of tile-order step and quad
coordinates only, never of runtime load.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.config import GPUConfig
from repro.core.quad_grouping import QuadGrouping
from repro.core.subtile_assignment import Permutation, SubtileAssignment
from repro.core.tile_order import TileCoord, tile_order


class QuadScheduler:
    """Static quad-to-shader-core schedule for one frame.

    Parameters
    ----------
    config:
        GPU geometry (tile grid, quads per tile).
    grouping:
        The Figure 6 quad grouping (quad -> subtile slot).
    assignment:
        The Figure 8 binding policy (slot -> SC per tile step).
    order_name:
        The Figure 7 tile order name.
    """

    def __init__(
        self,
        config: GPUConfig,
        grouping: QuadGrouping,
        assignment: SubtileAssignment,
        order_name: str,
    ):
        self.config = config
        self.grouping = grouping
        self.assignment = assignment
        self.order_name = order_name

        self.tiles: List[TileCoord] = tile_order(
            order_name, config.tiles_x, config.tiles_y
        )
        self._perms: List[Permutation] = assignment.permutation_sequence(
            self.tiles, grouping.layout
        )
        side = config.quads_per_tile_side
        self._slot_map: List[List[int]] = grouping.slot_map(side)
        #: Row-major flattening of the slot map, for the replay hot path.
        self._slot_flat = np.array(
            [slot for row in self._slot_map for slot in row], dtype=np.int64
        )
        # core_lut results keyed by (permutation, n_cores): the traversal
        # revisits a handful of distinct permutations, so the per-step
        # quad -> core tables collapse to a few shared arrays.
        self._lut_cache: dict = {}

    # -- queries -------------------------------------------------------------

    @property
    def num_steps(self) -> int:
        return len(self.tiles)

    def slot_of(self, qx: int, qy: int) -> int:
        """Subtile slot of in-tile quad ``(qx, qy)``."""
        return self._slot_map[qy][qx]

    def permutation_at(self, step: int) -> Permutation:
        """slot -> SC binding at traversal position ``step``."""
        return self._perms[step]

    def core_lut(self, step: int, n_cores: int) -> np.ndarray:
        """Flat quad -> SC table for one traversal step.

        ``lut[qy * side + qx]`` is the shader core (modulo ``n_cores``,
        for the single-SC upper-bound configuration) executing in-tile
        quad ``(qx, qy)`` — the whole per-quad schedule of the step as
        one precomputed read-only array, so a tile's quad -> core map
        is a single gather ``lut[slots]``.
        """
        perm = self._perms[step]
        key = (perm, n_cores)
        lut = self._lut_cache.get(key)
        if lut is None:
            lut = np.array(perm, dtype=np.int64)[self._slot_flat] % n_cores
            lut.flags.writeable = False
            self._lut_cache[key] = lut
        return lut

    def core_map(self, step: int) -> List[List[int]]:
        """Full quad -> SC matrix for the step-th tile (for plots/tests)."""
        perm = self._perms[step]
        return [[perm[slot] for slot in row] for row in self._slot_map]
