"""Texture samplers: nearest, bilinear, trilinear and anisotropic.

The sampler's job in this simulator is to turn one texture sample
(a UV coordinate plus a level-of-detail) into the set of cache lines
it touches — the :class:`SampleFootprint`.  Filter choice changes how
wide that footprint is and therefore how much reuse neighbouring quads
see ("more so in trilinear and anisotropic filtering than in bilinear",
paper §II-B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Tuple

from repro.texture.texture import Texture
from repro.errors import ConfigError


class FilterMode(Enum):
    """Supported texture filtering modes."""

    NEAREST = "nearest"
    BILINEAR = "bilinear"
    TRILINEAR = "trilinear"
    ANISOTROPIC = "anisotropic"


@dataclass(frozen=True)
class SampleFootprint:
    """The memory touched by one texture sample."""

    texture_id: int
    lines: Tuple[int, ...]
    texel_count: int


def compute_lod(
    du_dx: float, dv_dx: float, du_dy: float, dv_dy: float,
    width: int, height: int,
) -> float:
    """Mip level of detail from UV screen-space derivatives.

    Standard GL formula: log2 of the longest screen-space texel stride.
    """
    sx = math.hypot(du_dx * width, dv_dx * height)
    sy = math.hypot(du_dy * width, dv_dy * height)
    rho = max(sx, sy, 1e-12)
    return max(0.0, math.log2(rho))


@dataclass(frozen=True)
class Sampler:
    """Computes sample footprints (and procedural colors) for a texture.

    Pass 1 records each quad's footprint lines in the trace; pass 2
    drives them through the texture L1s and the shared L2.  Only
    :class:`~repro.sim.driver.FrameRenderer` takes a sampler: the
    runner, the sweep and the animation simulator render with the
    default bilinear one, and the filtering ablation builds one
    renderer per mode.
    """

    filter_mode: FilterMode = FilterMode.BILINEAR
    max_anisotropy: int = 4

    def __post_init__(self) -> None:
        if self.max_anisotropy < 1:
            raise ConfigError("max_anisotropy must be >= 1")

    # -- footprint construction ------------------------------------------------

    def _bilinear_texels(
        self, texture: Texture, u: float, v: float, lod: int
    ) -> List[Tuple[int, int]]:
        """The 2x2 texel neighbourhood of (u, v) at integer ``lod``."""
        mip = texture.level(lod)
        # Texel centres are at half-integer coordinates.
        tx = u * mip.width - 0.5
        ty = v * mip.height - 0.5
        x0, y0 = math.floor(tx), math.floor(ty)
        return [
            texture.wrap(x0 + dx, y0 + dy, lod)
            for dy in (0, 1) for dx in (0, 1)
        ]

    def footprint(
        self, texture: Texture, u: float, v: float, lod: float = 0.0
    ) -> SampleFootprint:
        """Cache lines touched by sampling ``texture`` at (u, v, lod)."""
        texels: List[Tuple[int, int, int]] = []  # (x, y, level)
        lod = min(max(lod, 0.0), float(texture.max_lod))
        base_level = int(lod)

        if self.filter_mode is FilterMode.NEAREST:
            mip = texture.level(base_level)
            x, y = texture.wrap(
                int(u * mip.width), int(v * mip.height), base_level
            )
            texels.append((x, y, base_level))
        elif self.filter_mode is FilterMode.BILINEAR:
            for x, y in self._bilinear_texels(texture, u, v, base_level):
                texels.append((x, y, base_level))
        elif self.filter_mode is FilterMode.TRILINEAR:
            levels = [base_level]
            if lod > base_level and base_level < texture.max_lod:
                levels.append(base_level + 1)
            for level in levels:
                for x, y in self._bilinear_texels(texture, u, v, level):
                    texels.append((x, y, level))
        elif self.filter_mode is FilterMode.ANISOTROPIC:
            # N bilinear probes spread along u at a sharper mip level.
            probes = self.max_anisotropy
            level = max(0, base_level - int(math.log2(probes)))
            mip = texture.level(level)
            step = probes / (2.0 * mip.width)
            for i in range(probes):
                offset = (i - (probes - 1) / 2.0) * step
                for x, y in self._bilinear_texels(
                    texture, u + offset, v, level
                ):
                    texels.append((x, y, level))
        else:  # pragma: no cover - enum is exhaustive
            raise ConfigError(f"unknown filter mode {self.filter_mode}")

        lines: List[int] = []
        seen = set()
        for x, y, level in texels:
            line = texture.texel_line(x, y, level)
            if line not in seen:
                seen.add(line)
                lines.append(line)
        return SampleFootprint(
            texture_id=texture.texture_id,
            lines=tuple(lines),
            texel_count=len(texels),
        )

    def bilinear_lines_batch(self, texture: Texture, u, v, level):
        """Vectorized bilinear footprints: cache lines of many samples.

        ``u``, ``v`` are float arrays of any shape and ``level`` a
        broadcastable pre-clamped integer mip level (per-quad levels
        can stay a column vector — per-level constants are then
        gathered once per quad rather than once per texel); returns an
        int64 array of shape ``broadcast(u, level).shape + (4,)`` whose
        last axis holds the 2x2 neighbourhood's cache lines in the same
        order as :meth:`footprint` visits them.  Only valid for
        BILINEAR mode.
        """
        import numpy as np

        if self.filter_mode is not FilterMode.BILINEAR:
            raise ConfigError("batch path only supports bilinear filtering")
        tables = texture._level_tables()
        level = np.asarray(level, dtype=np.int64)
        w = tables["wmask"][level] + 1
        h = tables["hmask"][level] + 1
        tx = np.asarray(u) * w - 0.5
        ty = np.asarray(v) * h - 0.5
        x0 = np.floor(tx).astype(np.int64)
        y0 = np.floor(ty).astype(np.int64)
        # Neighbour order matches the scalar path: (0,0),(1,0),(0,1),(1,1).
        nx = np.stack([x0, x0 + 1, x0, x0 + 1], axis=-1)
        ny = np.stack([y0, y0, y0 + 1, y0 + 1], axis=-1)
        return texture.texel_lines_array(nx, ny, level[..., None])

    def quad_footprints_batch(self, texture: Texture, lane_u, lane_v,
                              texture_samples: int):
        """Batched per-quad mip LOD + cache-line rows for many quads.

        ``lane_u``/``lane_v`` are lane-major ``(4, Q)`` arrays: row
        ``k`` holds lane ``k`` of every quad, in footprint order
        ``(0,0), (1,0), (0,1), (1,1)``.  Returns ``(lods, lines)``: the
        raw (unclamped) per-quad LOD array and an ``(N, Q)`` int64
        array whose column ``q`` is quad ``q``'s cache lines in scalar
        visit order — lane, then sample, then bilinear neighbour —
        still containing duplicates, exactly as the scalar path visits
        them before its first-visit dedup.  Only valid for BILINEAR
        mode.

        Addresses are separable (:meth:`Texture.axis_terms`): each lane
        looks up two x terms (``base`` folded in) and two y terms, and a
        neighbour's line is one add and one shift.
        """
        import numpy as np

        u00 = lane_u[0]
        v00 = lane_v[0]
        sx = np.hypot(
            (lane_u[1] - u00) * texture.width,
            (lane_v[1] - v00) * texture.height,
        )
        sy = np.hypot(
            (lane_u[2] - u00) * texture.width,
            (lane_v[2] - v00) * texture.height,
        )
        rho = np.maximum(np.maximum(sx, sy), 1e-12)
        lods = np.maximum(0.0, np.log2(rho))
        # The *sampled* level clamps to the mip chain; the reported LOD
        # stays raw, matching the scalar path.
        levels = np.minimum(lods, float(texture.max_lod)).astype(np.int64)

        widths, heights, x_starts, y_starts, x_term, y_term = (
            texture.axis_terms()
        )
        width = widths[levels]
        height = heights[levels]
        wmask = width - 1
        hmask = height - 1
        x_start = x_starts[levels]
        y_start = y_starts[levels]

        # Byte addresses as [lane, sample, neighbour, quad], shifted to
        # cache lines once at the end.
        count = len(lods)
        lines = np.empty((4, texture_samples, 4, count), dtype=np.int64)
        for sample in range(texture_samples):
            scale = float(sample + 1)
            # Power-of-two wrap: two's-complement AND with (size - 1) is
            # exactly the non-negative Python ``%``.
            x0 = np.floor(lane_u * scale * width - 0.5).astype(np.int64)
            x1 = (x0 + 1) & wmask
            x0 &= wmask
            y0 = np.floor(lane_v * scale * height - 0.5).astype(np.int64)
            y1 = (y0 + 1) & hmask
            y0 &= hmask
            ax0 = x_term[x0 + x_start]
            ax1 = x_term[x1 + x_start]
            ay0 = y_term[y0 + y_start]
            ay1 = y_term[y1 + y_start]
            # Neighbour order matches the scalar path: (0,0),(1,0),(0,1),(1,1).
            out = lines[:, sample]
            np.add(ax0, ay0, out=out[:, 0])
            np.add(ax1, ay0, out=out[:, 1])
            np.add(ax0, ay1, out=out[:, 2])
            np.add(ax1, ay1, out=out[:, 3])
        lines >>= 6
        return lods, lines.reshape(16 * texture_samples, count)

    # -- procedural filtering ----------------------------------------------------

    def sample_color(
        self, texture: Texture, u: float, v: float, lod: float = 0.0
    ) -> Tuple[float, float, float]:
        """Filtered procedural color in [0, 1]^3 (for image output only)."""
        level = int(min(max(lod, 0.0), float(texture.max_lod)))
        mip = texture.level(level)
        tx = u * mip.width - 0.5
        ty = v * mip.height - 0.5
        x0, y0 = math.floor(tx), math.floor(ty)
        fx, fy = tx - x0, ty - y0
        acc = [0.0, 0.0, 0.0]
        for dy, wy in ((0, 1.0 - fy), (1, fy)):
            for dx, wx in ((0, 1.0 - fx), (1, fx)):
                x, y = texture.wrap(x0 + dx, y0 + dy, level)
                r, g, b = texture.texel_value(x, y, level)
                w = wx * wy
                acc[0] += r * w
                acc[1] += g * w
                acc[2] += b * w
        return (acc[0] / 255.0, acc[1] / 255.0, acc[2] / 255.0)
