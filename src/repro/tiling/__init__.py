"""The Tiling Engine: Polygon List Builder, Parameter Buffer, Tile Fetcher.

"The goal of the Polygon List Builder is to produce a list, for each tile
of the screen, containing all the primitives that overlap it.  This data
is arranged in a structure known as the Parameter Buffer."  The Tile
Fetcher reads those lists back one tile at a time, in whatever tile
order the replay asks for.  Pass 1 records each tile's fetch lines and
cycles; no memory model is imported here, since pass 2 drives the lines
through the Tile Cache.
"""

from repro.tiling.parameter_buffer import ParameterBuffer
from repro.tiling.polygon_list_builder import PolygonListBuilder
from repro.tiling.tile_fetcher import TileFetcher

__all__ = [
    "ParameterBuffer",
    "PolygonListBuilder",
    "TileFetcher",
]
