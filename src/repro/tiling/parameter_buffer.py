"""The Parameter Buffer.

Primitive attributes are stored exactly once; the per-tile lists hold
only primitive IDs ("since attributes occupy significant space and
primitives may overlap many tiles").  The buffer lives in main memory
and is accessed through the Tile Cache, so this module also assigns
addresses: an attribute region (one fixed-size record per primitive)
followed by the per-tile ID lists, built and consumed within one frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.tile_order import TileCoord
from repro.raster.setup import ScreenPrimitive

#: Bytes per primitive attribute record (3 vertices x 4 attributes x 4 B,
#: rounded to the cache-line-friendly 64).
ATTRIBUTE_RECORD_BYTES = 64

#: Bytes per primitive-ID entry in a tile list.
ID_ENTRY_BYTES = 4

#: Parameter Buffer base; above the texture region so lines never alias.
PARAMETER_BUFFER_BASE = 1 << 34


@dataclass
class ParameterBuffer:
    """Per-frame primitive store plus per-tile primitive-ID lists."""

    primitives: Dict[int, ScreenPrimitive] = field(default_factory=dict)
    tile_lists: Dict[TileCoord, List[int]] = field(default_factory=dict)
    base_address: int = PARAMETER_BUFFER_BASE

    def append_to_tile(self, tile: TileCoord, primitive_id: int, sub: int) -> None:
        """Append one primitive reference to a tile's list, in program order."""
        self.tile_lists.setdefault(tile, []).append((primitive_id, sub))

    # -- queries -------------------------------------------------------------

    def primitives_for_tile(self, tile: TileCoord) -> List[ScreenPrimitive]:
        """The tile's primitives in program order (empty if none)."""
        return [
            self.primitives[key] for key in self.tile_lists.get(tile, [])
        ]

    def tile_primitive_count(self, tile: TileCoord) -> int:
        return len(self.tile_lists.get(tile, ()))

    # -- memory layout ---------------------------------------------------------

    def attribute_address(self, primitive_id: int) -> int:
        """Byte address of a primitive's attribute record."""
        return self.base_address + primitive_id * ATTRIBUTE_RECORD_BYTES

    def list_entry_address(self, tile: TileCoord, index: int) -> int:
        """Byte address of the index-th entry of a tile's ID list.

        Tile lists are laid out after the attribute region, one
        contiguous run per tile (row-major by tile coordinate), sized
        by the actual list length.
        """
        if not hasattr(self, "_list_offsets"):
            self._build_list_offsets()
        return self._list_offsets[tile] + index * ID_ENTRY_BYTES

    def _build_list_offsets(self) -> None:
        attr_end = (
            self.base_address
            + (max((k[0] for k in self.primitives), default=0) + 1)
            * ATTRIBUTE_RECORD_BYTES
        )
        offsets: Dict[TileCoord, int] = {}
        cursor = attr_end
        for tile in sorted(self.tile_lists):
            offsets[tile] = cursor
            cursor += len(self.tile_lists[tile]) * ID_ENTRY_BYTES
        self._list_offsets = offsets
