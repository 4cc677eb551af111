"""Geometry substrate and Geometry Pipeline.

Vector/matrix math, meshes and scenes, and the three front-end stages of
the Graphics Pipeline of Figure 3: the Vertex Stage (fetch + transform),
the Primitive Assembler and frustum clipping/culling.
"""

from repro.geometry.vec import Mat4, Vec2, Vec3, Vec4
from repro.geometry.mesh import DrawCommand, Mesh, Scene, Vertex
from repro.geometry.transform import (
    look_at,
    orthographic,
    perspective,
    translate,
    viewport_transform,
)
from repro.geometry.vertex_stage import VertexStage
from repro.geometry.primitive_assembly import Primitive, PrimitiveAssembler
from repro.geometry.clipping import clip_primitive, cull_backface

__all__ = [
    "Vec2", "Vec3", "Vec4", "Mat4",
    "Vertex", "Mesh", "Scene", "DrawCommand",
    "translate", "look_at", "perspective",
    "orthographic", "viewport_transform",
    "VertexStage", "Primitive", "PrimitiveAssembler",
    "clip_primitive", "cull_backface",
]
