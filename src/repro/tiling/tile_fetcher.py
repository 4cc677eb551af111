"""The Tile Fetcher.

"After all the geometry is processed and binned, the Tile Fetcher fetches
the primitives corresponding to each tile in the frame, one tile at a
time.  Tiles are processed in an order specified by the Tiling Engine."

Pass 1 records what a tile's fetch costs: the cache lines of its
primitive-ID list and of each referenced attribute record
(:meth:`TileFetcher.fetch_lines`), and a fetch-cycle estimate
(:meth:`TileFetcher.fetch_cycles`).  Pass 2 drives those lines through
the Tile Cache into the shared L2 like every other traffic class, and
the pipeline timing model uses the cycles as the front-end throughput
bound of the decoupled architecture.
"""

from __future__ import annotations

from typing import List

from repro.config import GPUConfig
from repro.core.tile_order import TileCoord
from repro.raster.setup import ScreenPrimitive
from repro.tiling.parameter_buffer import (
    ATTRIBUTE_RECORD_BYTES,
    ID_ENTRY_BYTES,
    ParameterBuffer,
)

LINE_BYTES = 64


class TileFetcher:
    """What fetching one tile of the Parameter Buffer reads and costs."""

    def __init__(self, config: GPUConfig):
        self.config = config

    @staticmethod
    def fetch_lines(
        buffer: ParameterBuffer,
        tile: TileCoord,
        primitives: List[ScreenPrimitive],
    ) -> List[int]:
        """Cache lines the Tile Fetcher reads for one tile.

        The tile's primitive-ID list (sequential) followed by each
        referenced attribute record.
        """
        count = buffer.tile_primitive_count(tile)
        if not count:
            return []
        lines: List[int] = []
        start = buffer.list_entry_address(tile, 0)
        end = start + count * ID_ENTRY_BYTES
        lines.extend(range(start // LINE_BYTES, -(-end // LINE_BYTES)))
        for primitive in primitives:
            addr = buffer.attribute_address(primitive.primitive_id)
            for offset in range(0, ATTRIBUTE_RECORD_BYTES, LINE_BYTES):
                lines.append((addr + offset) // LINE_BYTES)
        return lines

    def fetch_cycles(self, buffer: ParameterBuffer, tile: TileCoord) -> int:
        """Front-end cycles to fetch one tile's primitive stream."""
        count = buffer.tile_primitive_count(tile)
        return max(count * self.config.tile_fetcher_cycles_per_primitive, 1)

    @staticmethod
    def fetch_lines_fast(bins, tile: TileCoord, pids) -> List[int]:
        """:meth:`fetch_lines` over the fast engine's TileBins layout.

        ``pids`` is the tile's primitive-id array in list order.  The
        ID-list run is identical by construction (same offsets, same
        entry size); each 64-byte attribute record spans exactly one
        line at ``base//64 + pid``, which is what the scalar loop's
        ``(base + pid*64 + 0) // 64`` computes.
        """
        count = len(pids)
        if not count:
            return []
        start = bins.list_offsets[tile]
        end = start + count * ID_ENTRY_BYTES
        lines = list(range(start // LINE_BYTES, -(-end // LINE_BYTES)))
        lines.extend((bins.base_address // LINE_BYTES + pids).tolist())
        return lines
