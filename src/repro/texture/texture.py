"""Mipmapped textures and their memory layout.

A :class:`Texture` is a power-of-two RGBA8 image with a full mip chain.
Texel *values* are procedural (a deterministic hash of the texel
coordinates) because only the *addresses* matter for the cache study;
the values let examples still produce images.  The address layout is
Morton-tiled per mip level (see :mod:`repro.texture.addressing`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.texture.addressing import morton_encode
from repro.errors import WorkloadError

TEXEL_BYTES = 4  # RGBA8
LINE_BYTES = 64
#: Texels per cache line (a 4x4 Morton block with 4-byte texels).
TEXELS_PER_LINE = LINE_BYTES // TEXEL_BYTES


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class MipLevel:
    """Geometry of one mip level within the texture's address range."""

    level: int
    width: int
    height: int
    byte_offset: int

    @property
    def byte_size(self) -> int:
        return self.width * self.height * TEXEL_BYTES


class Texture:
    """A mipmapped, Morton-tiled, procedurally valued texture."""

    def __init__(
        self,
        texture_id: int,
        width: int,
        height: int,
        base_address: int = 0,
        seed: int = 0,
    ):
        if not (_is_pow2(width) and _is_pow2(height)):
            raise WorkloadError("texture dimensions must be powers of two")
        self.texture_id = texture_id
        self.width = width
        self.height = height
        self.base_address = base_address
        self.seed = seed
        self.mip_levels: List[MipLevel] = self._build_mip_chain()

    def _build_mip_chain(self) -> List[MipLevel]:
        levels: List[MipLevel] = []
        w, h, offset, level = self.width, self.height, 0, 0
        while True:
            levels.append(MipLevel(level, w, h, offset))
            offset += w * h * TEXEL_BYTES
            if w == 1 and h == 1:
                break
            w, h, level = max(1, w // 2), max(1, h // 2), level + 1
        return levels

    # -- geometry -------------------------------------------------------------

    @property
    def num_mip_levels(self) -> int:
        return len(self.mip_levels)

    @property
    def max_lod(self) -> int:
        return self.num_mip_levels - 1

    @property
    def total_bytes(self) -> int:
        """Footprint of the full mip chain in memory."""
        last = self.mip_levels[-1]
        return last.byte_offset + last.byte_size

    def level(self, lod: int) -> MipLevel:
        """The mip level for an integer LOD, clamped to the chain."""
        return self.mip_levels[min(max(lod, 0), self.max_lod)]

    # -- addressing -----------------------------------------------------------

    def wrap(self, x: int, y: int, lod: int) -> Tuple[int, int]:
        """Repeat-mode wrapping of integer texel coordinates at ``lod``."""
        mip = self.level(lod)
        return x % mip.width, y % mip.height

    def texel_address(self, x: int, y: int, lod: int = 0) -> int:
        """Byte address of texel (x, y) at mip ``lod`` (repeat wrapping)."""
        mip = self.level(lod)
        x, y = x % mip.width, y % mip.height
        # Morton order over the larger dimension; rectangular textures
        # fold the extra bits of the long axis beyond the square part.
        if mip.width == mip.height:
            index = morton_encode(x, y)
        elif mip.width > mip.height:
            blocks = x // mip.height
            index = blocks * mip.height * mip.height + morton_encode(
                x % mip.height, y
            )
        else:
            blocks = y // mip.width
            index = blocks * mip.width * mip.width + morton_encode(
                x, y % mip.width
            )
        return self.base_address + mip.byte_offset + index * TEXEL_BYTES

    def texel_line(self, x: int, y: int, lod: int = 0) -> int:
        """Cache-line number of texel (x, y) at mip ``lod``."""
        return self.texel_address(x, y, lod) // LINE_BYTES

    def _level_tables(self):
        """Cached per-level arrays for :meth:`texel_lines_array`.

        Every dimension is a power of two, so wrapping and block folds
        reduce to masks and shifts; the per-level byte offset is folded
        into ``base_off`` so one gather covers it.
        """
        tables = getattr(self, "_level_tables_cache", None)
        if tables is None:
            import numpy as np

            w = np.array([m.width for m in self.mip_levels], dtype=np.int64)
            h = np.array(
                [m.height for m in self.mip_levels], dtype=np.int64
            )
            sq = np.minimum(w, h)
            tables = {
                "wmask": w - 1,
                "hmask": h - 1,
                "sqmask": sq - 1,
                "sqbits": np.array(
                    [int(s).bit_length() - 1 for s in sq], dtype=np.int64
                ),
                "base_off": self.base_address + np.array(
                    [m.byte_offset for m in self.mip_levels], dtype=np.int64
                ),
            }
            tables["sq2bits"] = tables["sqbits"] * 2
            self._level_tables_cache = tables
        return tables

    def texel_lines_array(self, x, y, level) -> "object":
        """Vectorized :meth:`texel_line` over numpy arrays.

        ``x``, ``y`` and ``level`` are equal-shaped integer arrays;
        coordinates wrap (repeat mode) and levels must be pre-clamped to
        ``[0, max_lod]``.  Returns an int64 array of cache-line numbers
        identical to the scalar path.
        """
        import numpy as np

        from repro.texture.addressing import morton_table

        tables = self._level_tables()
        level = np.asarray(level, dtype=np.int64)
        # Power-of-two wrap: two's-complement AND with (size - 1) is
        # exactly the non-negative Python ``%``.
        x = np.asarray(x, dtype=np.int64) & tables["wmask"][level]
        y = np.asarray(y, dtype=np.int64) & tables["hmask"][level]
        # Fold the long axis into square Morton blocks (as in
        # texel_address).  The short axis' fold shift is a no-op (its
        # coordinate is already below the square size), so no per-axis
        # selection is needed.
        sqbits = tables["sqbits"][level]
        blocks = ((x >> sqbits) + (y >> sqbits)) << tables["sq2bits"][level]
        sqmask = tables["sqmask"][level]
        table = morton_table()
        code = (table[x & sqmask] | (table[y & sqmask] << np.uint64(1)))
        index = blocks + code.astype(np.int64)
        # address = base + mip offset + index * TEXEL_BYTES, then // 64;
        # all terms non-negative, so shifts are exact.
        return (tables["base_off"][level] + (index << 2)) >> 6

    def axis_terms(self):
        """Cached separable byte-address terms of every mip level's axes.

        Morton x and y bits are disjoint, so texel (x, y) of level ``l``
        (wrapped to the level) lies at byte
        ``x_term[x_start[l] + x] + y_term[y_start[l] + y]``.  ``x_term``
        holds ``base + mip offset + 4*X(x)`` with
        ``X(x) = ((x >> sqbits) << sq2bits) + morton(x & sqmask)``,
        ``y_term`` holds ``4*Y(y)``, ``Y`` the same with the Morton term
        shifted left by one — the fold and interleave of
        :meth:`texel_address`, one axis at a time.  Returns per-level
        ``(width, height, x_start, y_start)`` arrays, then the two term
        arrays.
        """
        terms = getattr(self, "_axis_terms_cache", None)
        if terms is None:
            import numpy as np

            from repro.texture.addressing import morton_table

            spread = morton_table().view(np.int64)  # codes < 2**32
            x_parts = []
            y_parts = []
            for mip in self.mip_levels:
                side = min(mip.width, mip.height)
                bits = side.bit_length() - 1
                xs = np.arange(mip.width, dtype=np.int64)
                ys = np.arange(mip.height, dtype=np.int64)
                x_parts.append(
                    self.base_address + mip.byte_offset
                    + ((((xs >> bits) << 2 * bits) + spread[xs & (side - 1)])
                       << 2)
                )
                y_parts.append(
                    (((ys >> bits) << 2 * bits)
                     + (spread[ys & (side - 1)] << 1)) << 2
                )
            width = np.array(
                [m.width for m in self.mip_levels], dtype=np.int64
            )
            height = np.array(
                [m.height for m in self.mip_levels], dtype=np.int64
            )
            terms = (
                width, height,
                np.cumsum(width) - width, np.cumsum(height) - height,
                np.concatenate(x_parts), np.concatenate(y_parts),
            )
            self._axis_terms_cache = terms
        return terms

    # -- procedural values ----------------------------------------------------

    def texel_value(self, x: int, y: int, lod: int = 0) -> Tuple[int, int, int]:
        """Deterministic RGB value of a texel (for image output)."""
        mip = self.level(lod)
        x, y = x % mip.width, y % mip.height
        h = (x * 374761393 + y * 668265263 + self.seed * 1442695040888963407
             + lod * 2246822519) & 0xFFFFFFFF
        h ^= h >> 13
        h = (h * 1274126177) & 0xFFFFFFFF
        return (h & 0xFF, (h >> 8) & 0xFF, (h >> 16) & 0xFF)


@dataclass
class TextureAllocator:
    """Assigns non-overlapping address ranges to textures.

    Texture memory starts above the vertex-buffer region so texture and
    vertex lines never alias in the shared L2.
    """

    next_address: int = 1 << 28
    alignment: int = 4096
    textures: Dict[int, Texture] = field(default_factory=dict)

    def create(self, width: int, height: int, seed: int = 0) -> Texture:
        """Allocate and register a new texture."""
        texture_id = len(self.textures)
        texture = Texture(
            texture_id, width, height,
            base_address=self.next_address, seed=seed,
        )
        size = texture.total_bytes
        padded = -(-size // self.alignment) * self.alignment
        self.next_address += padded
        self.textures[texture_id] = texture
        return texture

    @property
    def total_footprint_bytes(self) -> int:
        """Aggregate texture footprint (Table I's "Texture Footprint")."""
        return sum(t.total_bytes for t in self.textures.values())
