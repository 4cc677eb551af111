"""The tile-sized Color Buffer and the frame buffer.

The Color Buffer holds one tile's colors on chip and is flushed to the
Frame Buffer in main memory once the tile completes.  It exists for the
reference renderer's image output (pass 1): the functional colors do
not depend on when a bank flushes.  The Decoupled-Barrier
architecture's per-bank flush with a per-bank Tile ID (§III-E) is a
timing matter: pass 2 models it in
``RasterPipelineModel._flush_cycles`` (:mod:`repro.raster.pipeline`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.tile_order import TileCoord
from repro.errors import ConfigError


class ColorBuffer:
    """On-chip color storage for one tile."""

    def __init__(self, tile_size: int):
        if tile_size <= 0 or tile_size % 2:
            raise ConfigError("tile_size must be a positive even number")
        self.tile_size = tile_size
        self.colors = np.zeros((tile_size, tile_size, 3), dtype=np.float64)
        self.flushes = 0

    def clear(self, background: Tuple[float, float, float] = (0, 0, 0)) -> None:
        self.colors[:] = background

    def write(self, px: int, py: int, color: Tuple[float, float, float]) -> None:
        """Store a final pixel color (within-tile coordinates)."""
        self.colors[py, px] = color

    def read(self, px: int, py: int) -> Tuple[float, float, float]:
        return tuple(self.colors[py, px])

    def flush_tile(
        self, framebuffer: "FrameBuffer", tile: TileCoord
    ) -> None:
        """Flush the whole tile to the frame buffer."""
        framebuffer.store_tile(tile, self.colors)
        self.flushes += 1


class FrameBuffer:
    """Full-frame color storage in (simulated) main memory."""

    def __init__(self, width: int, height: int, tile_size: int):
        self.width = width
        self.height = height
        self.tile_size = tile_size
        self.image = np.zeros((height, width, 3), dtype=np.float64)

    def _tile_region(self, tile: TileCoord) -> Tuple[slice, slice]:
        x0 = tile[0] * self.tile_size
        y0 = tile[1] * self.tile_size
        return (
            slice(y0, min(y0 + self.tile_size, self.height)),
            slice(x0, min(x0 + self.tile_size, self.width)),
        )

    def store_tile(self, tile: TileCoord, colors: np.ndarray) -> None:
        ys, xs = self._tile_region(tile)
        h = ys.stop - ys.start
        w = xs.stop - xs.start
        self.image[ys, xs] = colors[:h, :w]

    def to_ppm(self) -> bytes:
        """Encode as a binary PPM image (for the examples)."""
        clamped = np.clip(self.image * 255.0, 0, 255).astype(np.uint8)
        header = f"P6 {self.width} {self.height} 255\n".encode()
        return header + clamped.tobytes()
