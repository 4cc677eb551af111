"""Fragment and quad records — the unit of scheduling and of the trace.

"The fragments of every four adjacent pixels are grouped to form a
*quad*"; quads are the threads/warps the scheduler distributes over the
shader cores.  A :class:`Quad` captures everything the replay passes
need: where it sits (tile + in-tile quad coordinates), what it costs
(shader ALU cycles, texture sample count) and exactly which texture
cache lines it touches.

The trace stores each tile's quads as :class:`TileQuads` columns, not
as ``Quad`` objects; a ``Quad`` is the per-quad view of one row.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import Iterator, NamedTuple, Sequence, Tuple

import numpy as np

from repro.core.tile_order import TileCoord

#: Pixel offsets within a quad, in (dx, dy) raster order.
QUAD_PIXEL_OFFSETS = ((0, 0), (1, 0), (0, 1), (1, 1))


class Quad(NamedTuple):
    """One shaded quad of the frame trace.

    ``coverage`` flags which of the four pixels survived rasterization
    and the Early-Z test; a quad only exists if at least one survived.
    ``texture_lines`` is the ordered, de-duplicated tuple of texture
    cache-line numbers its samples touch (all four lanes, including
    helper lanes' contributions, as produced by the sampler).

    A ``NamedTuple`` rather than a dataclass: the scalar render and the
    :class:`TileQuads` view build one per quad, and tuple construction
    is several times cheaper than a frozen dataclass ``__init__``.
    """

    tile: TileCoord
    qx: int
    qy: int
    primitive_id: int
    texture_id: int
    coverage: Tuple[bool, bool, bool, bool]
    alu_cycles: int
    texture_lines: Tuple[int, ...]
    lod: float = 0.0
    blend: bool = False

    @property
    def covered_pixels(self) -> int:
        return sum(self.coverage)

    @property
    def compute_cycles(self) -> int:
        """Total SC issue cycles for this quad (ALU + texture issues)."""
        return self.alu_cycles + len(self.texture_lines)


#: Coverage tuple for each 4-bit lane code (lane 0 is the high bit).
COVERAGE_TUPLES = tuple(
    tuple(bool((code >> shift) & 1) for shift in (3, 2, 1, 0))
    for code in range(16)
)

#: Covered-pixel count of each 4-bit lane code.
_POPCOUNT = np.array([bin(code).count("1") for code in range(16)])

#: What ``Quad._make`` does, without its Python-level wrapper frame.
_NEW_QUAD = partial(tuple.__new__, Quad)


class QuadStream(NamedTuple):
    """Schedule-independent replay inputs of one tile, per quad and line.

    ``slot`` is each quad's scheduler-LUT index (``qy * side + qx``),
    ``issue`` its SC issue cycles (ALU + one per texture line), and
    ``line_quad`` the quad index owning each entry of
    :attr:`TileQuads.lines`.
    """

    slot: np.ndarray
    issue: np.ndarray
    line_quad: np.ndarray


class TileQuads:
    """One tile's shaded-quad stream as columns (a struct of arrays).

    Per quad, in stream order: ``qx``, ``qy``, ``primitive_id``,
    ``texture_id``, ``coverage_code`` (the 4-bit lane mask, lane 0 the
    high bit), ``alu_cycles``, ``lod`` and ``blend``.  The de-duplicated
    texture cache lines are in CSR form: quad ``i`` touches
    ``lines[line_offsets[i]:line_offsets[i + 1]]``.

    This is the trace's only stored form.  :class:`Quad` records are a
    read-only view built on demand (:meth:`to_quads`, iteration); every
    hot consumer reads the columns or their aggregates instead.  The
    arrays are frozen, so the cached :meth:`stream` derivation can be
    shared by every replay of the trace.
    """

    FIELDS = (
        "qx", "qy", "primitive_id", "texture_id", "coverage_code",
        "alu_cycles", "lod", "blend", "lines", "line_offsets",
    )
    __slots__ = ("tile",) + FIELDS + ("_stream",)
    __hash__ = None  # array-valued equality

    def __init__(self, tile, qx, qy, primitive_id, texture_id,
                 coverage_code, alu_cycles, lod, blend, lines, line_offsets):
        self.tile = tile
        for name, value in zip(self.FIELDS, (
            qx, qy, primitive_id, texture_id, coverage_code,
            alu_cycles, lod, blend, lines, line_offsets,
        )):
            array = np.asarray(value)
            array.flags.writeable = False
            setattr(self, name, array)
        self._stream = None

    @classmethod
    def frozen(cls, tile, *columns) -> "TileQuads":
        """Columns that are read-only arrays already, in :attr:`FIELDS`
        order, taken as they are (a checkpoint load's slices of its
        frozen segment columns): no conversion and no flag writes."""
        quads = cls.__new__(cls)
        quads.tile = tile
        (quads.qx, quads.qy, quads.primitive_id, quads.texture_id,
         quads.coverage_code, quads.alu_cycles, quads.lod, quads.blend,
         quads.lines, quads.line_offsets) = columns
        quads._stream = None
        return quads

    @classmethod
    def empty(cls) -> "TileQuads":
        """No quads (the state of every tile nothing was shaded in)."""
        ints = np.zeros(0, dtype=np.int64)
        return cls(None, ints, ints, ints, ints, ints, ints,
                   np.zeros(0, dtype=np.float64), np.zeros(0, dtype=bool),
                   ints, np.zeros(1, dtype=np.int64))

    @classmethod
    def from_quads(cls, quads: Sequence[Quad]) -> "TileQuads":
        """Columns of a :class:`Quad` list (the scalar engine's output)."""
        if not quads:
            return cls.empty()
        counts = [len(q.texture_lines) for q in quads]
        offsets = np.zeros(len(quads) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(
            quads[0].tile,
            np.array([q.qx for q in quads], dtype=np.int64),
            np.array([q.qy for q in quads], dtype=np.int64),
            np.array([q.primitive_id for q in quads], dtype=np.int64),
            np.array([q.texture_id for q in quads], dtype=np.int64),
            np.array(
                [(a << 3) | (b << 2) | (c << 1) | d
                 for a, b, c, d in (q.coverage for q in quads)],
                dtype=np.int64,
            ),
            np.array([q.alu_cycles for q in quads], dtype=np.int64),
            np.array([q.lod for q in quads], dtype=np.float64),
            np.array([q.blend for q in quads], dtype=bool),
            np.fromiter(
                (line for q in quads for line in q.texture_lines),
                dtype=np.int64, count=int(offsets[-1]),
            ),
            offsets,
        )

    # -- aggregates (no per-quad Python) --------------------------------------

    def __len__(self) -> int:
        return len(self.qx)

    @property
    def num_lines(self) -> int:
        """Texture lines over all quads (each quad's set de-duplicated)."""
        return len(self.lines)

    @property
    def covered_pixels(self) -> int:
        """Shaded pixels: the popcount of every quad's coverage code."""
        return int(_POPCOUNT[self.coverage_code].sum())

    def stream(self, side: int) -> QuadStream:
        """The replay's per-tile inputs, derived once per ``side``.

        Pure in the frozen columns, so one derivation serves every
        design point and engine replaying the trace.
        """
        cached = self._stream
        if cached is None or cached[0] != side:
            counts = np.diff(self.line_offsets)
            cached = (side, QuadStream(
                slot=self.qy * side + self.qx,
                issue=self.alu_cycles + counts,
                line_quad=np.repeat(np.arange(len(counts)), counts),
            ))
            self._stream = cached
        return cached[1]

    # -- the Quad view -------------------------------------------------------

    def to_quads(self) -> Tuple[Quad, ...]:
        """The :class:`Quad` records, built on demand."""
        flat = self.lines.tolist()
        bounds = self.line_offsets.tolist()
        return tuple(map(_NEW_QUAD, zip(
            repeat(self.tile), self.qx.tolist(), self.qy.tolist(),
            self.primitive_id.tolist(), self.texture_id.tolist(),
            map(COVERAGE_TUPLES.__getitem__, self.coverage_code.tolist()),
            self.alu_cycles.tolist(),
            [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])],
            self.lod.tolist(), self.blend.tolist(),
        )))

    def __iter__(self) -> Iterator[Quad]:
        return iter(self.to_quads())

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TileQuads):
            return NotImplemented
        return self.tile == other.tile and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.FIELDS
        )

    def __reduce__(self):
        # Columns only: the derived stream cache is never pickled.
        return TileQuads, (self.tile,) + tuple(
            getattr(self, name) for name in self.FIELDS
        )

    def __repr__(self) -> str:
        return (
            f"TileQuads(tile={self.tile!r}, quads={len(self)}, "
            f"lines={self.num_lines})"
        )
