"""The Raster Pipeline: setup, rasterization, Z-test, shading trace,
blending, and the coupled/decoupled timing models.
"""

from repro.raster.setup import ScreenPrimitive, ScreenVertex, setup_primitive
from repro.raster.fragment import Quad
from repro.raster.rasterizer import Rasterizer
from repro.raster.zbuffer import ZBuffer
from repro.raster.color_buffer import ColorBuffer
from repro.raster.blending import BlendingUnit
from repro.raster.pipeline import (
    FrameTiming,
    RasterPipelineModel,
    SubtileWork,
    TileWork,
)

__all__ = [
    "ScreenVertex", "ScreenPrimitive", "setup_primitive",
    "Quad",
    "Rasterizer", "ZBuffer", "ColorBuffer", "BlendingUnit",
    "RasterPipelineModel", "FrameTiming", "SubtileWork", "TileWork",
]
