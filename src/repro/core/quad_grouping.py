"""Quad groupings: how a tile's quads are partitioned into Subtiles.

Paper Figure 6 and §III-B.  A grouping maps the quad coordinates within a
tile, ``(qx, qy)`` with ``0 <= qx, qy < tile_size/2``, to one of four
*subtile slots*.  Each slot is bound to one Z-Buffer/Color-Buffer bank and
— through the subtile assignment of Figure 8 — to one shader core.

Fine-grained (FG) groupings interleave adjacent quads across slots for
load balance; coarse-grained (CG) groupings keep adjacent quads together
for texture locality:

* ``FG-check``   (6a) 2x2 checkerboard — no 4-neighbour shares a slot.
* ``FG-check2``  (6b) checkerboard with swapped odd rows — same property.
* ``FG-diag``    (6c) anti-diagonal stripes — at most 2 diagonal
  neighbours share a slot.
* ``FG-adiag``   (6d) main-diagonal stripes — same, other diagonal.
* ``FG-xshift2`` (6e) horizontal pairs, shifted by 2 each row — at most
  2 horizontal neighbours share a slot.  **The paper's baseline.**
* ``FG-yshift2`` (6f) vertical pairs, shifted by 2 each column.
* ``CG-xrect``   (6g) four vertical strips (rectangles arrayed along x).
* ``CG-yrect``   (6h) four horizontal strips (rectangles arrayed along y).
* ``CG-tri``     (6i) four triangles meeting at the tile centre.
* ``CG-square``  (6j) four square quadrants.  **The paper's CG choice.**
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List

from repro.errors import UnknownNameError

NUM_SLOTS = 4


class SubtileLayout(Enum):
    """Spatial arrangement of the four subtile slots within a tile.

    The subtile assignment policies (Figure 8) need to know where each
    slot sits to flip along the shared edge of consecutive tiles.
    """

    #: 2x2 quadrants: slot = (col) + 2*(row).
    SQUARE = "square"
    #: 4 slots side by side along x (vertical strips).
    XSTRIPS = "xstrips"
    #: 4 slots stacked along y (horizontal strips).
    YSTRIPS = "ystrips"
    #: Fine-grained: slots have no coherent position; flips are no-ops.
    INTERLEAVED = "interleaved"


@dataclass(frozen=True)
class QuadGrouping:
    """A named mapping from in-tile quad coordinates to subtile slots."""

    name: str
    fine_grained: bool
    layout: SubtileLayout
    _fn: Callable[[int, int, int], int]

    def slot_map(self, quads_per_side: int) -> List[List[int]]:
        """Full slot matrix (rows indexed by qy) for inspection/plots."""
        return [
            [self._fn(qx, qy, quads_per_side) for qx in range(quads_per_side)]
            for qy in range(quads_per_side)
        ]


# -- fine-grained mappings (Figure 6 a-f) --------------------------------------

def _fg_check(qx: int, qy: int, _side: int) -> int:
    return (qx % 2) + 2 * (qy % 2)


def _fg_check2(qx: int, qy: int, _side: int) -> int:
    base = qx % 2
    if qy % 2:
        return 3 - base
    return base


def _fg_diag(qx: int, qy: int, _side: int) -> int:
    return (qx + qy) % 4


def _fg_adiag(qx: int, qy: int, _side: int) -> int:
    return (qx - qy) % 4


def _fg_xshift2(qx: int, qy: int, _side: int) -> int:
    # Horizontal pairs of quads; the 8-quad pattern shifts 2 per row.
    return (((qx + 2 * qy) % 8) // 2)


def _fg_yshift2(qx: int, qy: int, _side: int) -> int:
    return (((qy + 2 * qx) % 8) // 2)


# -- coarse-grained mappings (Figure 6 g-j) ------------------------------------

def _cg_xrect(qx: int, qy: int, side: int) -> int:
    return min(qx * NUM_SLOTS // side, NUM_SLOTS - 1)


def _cg_yrect(qx: int, qy: int, side: int) -> int:
    return min(qy * NUM_SLOTS // side, NUM_SLOTS - 1)


def _cg_square(qx: int, qy: int, side: int) -> int:
    half = side // 2
    return (1 if qx >= half else 0) + (2 if qy >= half else 0)


def _cg_tri(qx: int, qy: int, side: int) -> int:
    """Four triangles meeting at the tile centre: N=0, E=1, W=2, S=3.

    A quad belongs to the triangle whose tile edge it is nearest to;
    quads equidistant from two edges (on the tile diagonals) alternate
    between the two candidates so all four subtiles hold exactly
    ``side*side/4`` quads.
    """
    mx = min(qx, side - 1 - qx)  # distance to nearest vertical edge
    my = min(qy, side - 1 - qy)  # distance to nearest horizontal edge
    if my < mx:
        return 0 if qy < side // 2 else 3  # north / south
    if mx < my:
        return 2 if qx < side // 2 else 1  # west / east
    # Diagonal tie: alternate by ring index to keep the split exact.
    if mx % 2 == 0:
        return 0 if qy < side // 2 else 3
    return 2 if qx < side // 2 else 1


FINE_GRAINED: Dict[str, QuadGrouping] = {
    g.name: g
    for g in [
        QuadGrouping("FG-check", True, SubtileLayout.INTERLEAVED, _fg_check),
        QuadGrouping("FG-check2", True, SubtileLayout.INTERLEAVED, _fg_check2),
        QuadGrouping("FG-diag", True, SubtileLayout.INTERLEAVED, _fg_diag),
        QuadGrouping("FG-adiag", True, SubtileLayout.INTERLEAVED, _fg_adiag),
        QuadGrouping("FG-xshift2", True, SubtileLayout.INTERLEAVED, _fg_xshift2),
        QuadGrouping("FG-yshift2", True, SubtileLayout.INTERLEAVED, _fg_yshift2),
    ]
}

COARSE_GRAINED: Dict[str, QuadGrouping] = {
    g.name: g
    for g in [
        QuadGrouping("CG-xrect", False, SubtileLayout.XSTRIPS, _cg_xrect),
        QuadGrouping("CG-yrect", False, SubtileLayout.YSTRIPS, _cg_yrect),
        QuadGrouping("CG-tri", False, SubtileLayout.SQUARE, _cg_tri),
        QuadGrouping("CG-square", False, SubtileLayout.SQUARE, _cg_square),
    ]
}

GROUPINGS: Dict[str, QuadGrouping] = {**FINE_GRAINED, **COARSE_GRAINED}


def get_grouping(name: str) -> QuadGrouping:
    """Look up a grouping by its Figure 6 name."""
    try:
        return GROUPINGS[name]
    except KeyError:
        raise UnknownNameError(
            f"unknown quad grouping {name!r}; choose from {sorted(GROUPINGS)}"
        ) from None
