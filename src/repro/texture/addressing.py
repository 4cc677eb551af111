"""Texel addressing: Morton (Z-order) tiled layout.

Mobile GPUs store textures in a tiled/swizzled layout so that spatially
adjacent texels share cache lines.  We use Morton order: with 4-byte
RGBA8 texels and 64-byte lines, one cache line holds a 4x4 texel block.
This 2D-block layout is what makes "adjacent quads frequently access the
same texels or texels lying in the same cache line" (paper §II-B) true
at the cache level.
"""

from __future__ import annotations

from repro.errors import WorkloadError

_B = [0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
      0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF]
_S = [1, 2, 4, 8, 16]


def _part1by1(n: int) -> int:
    """Spread the low 32 bits of n so there is a 0 bit between each."""
    n &= 0xFFFFFFFF
    n = (n | (n << _S[4])) & _B[4]
    n = (n | (n << _S[3])) & _B[3]
    n = (n | (n << _S[2])) & _B[2]
    n = (n | (n << _S[1])) & _B[1]
    n = (n | (n << _S[0])) & _B[0]
    return n


def _compact1by1(n: int) -> int:
    """Inverse of :func:`_part1by1`."""
    n &= _B[0]
    n = (n ^ (n >> _S[0])) & _B[1]
    n = (n ^ (n >> _S[1])) & _B[2]
    n = (n ^ (n >> _S[2])) & _B[3]
    n = (n ^ (n >> _S[3])) & _B[4]
    n = (n ^ (n >> _S[4])) & 0xFFFFFFFF
    return n


def morton_encode(x: int, y: int) -> int:
    """Interleave the bits of (x, y) into a Morton code."""
    if x < 0 or y < 0:
        raise WorkloadError("morton coordinates must be non-negative")
    return _part1by1(x) | (_part1by1(y) << 1)


def morton_decode(code: int) -> tuple:
    """Recover (x, y) from a Morton code."""
    if code < 0:
        raise WorkloadError("morton code must be non-negative")
    return _compact1by1(code), _compact1by1(code >> 1)


def _build_morton_table():
    import numpy as np

    n = np.arange(1 << 16, dtype=np.uint64)
    for mask, shift in zip(reversed(_B), reversed(_S)):
        n = (n | (n << np.uint64(shift))) & np.uint64(mask)
    return n


#: 16-bit bit-spread lookup table (``table[n] == _part1by1(n)``): 512 KiB
#: built once at import, turning Morton encoding of coordinates below
#: 2**16 into two gathers, a shift and an or.  Built eagerly so the
#: timing-critical render/replay paths never mutate module state.
_MORTON_TABLE = _build_morton_table()


def morton_table():
    """The precomputed 16-bit bit-spread table (read-only)."""
    return _MORTON_TABLE
