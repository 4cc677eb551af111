"""Meshes, draw commands and scenes — the input to the Graphics Pipeline.

A :class:`Scene` is a list of :class:`DrawCommand`\\ s.  Each draw command
references a :class:`Mesh` (vertex + index buffers), a texture id, a model
matrix and a shader-program descriptor.  This mirrors the paper's input
model: "Input data for the Graphics Pipeline consists of vertices and
textures", with draw commands triggering the Geometry Pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.geometry.vec import Mat4, Vec2, Vec3
from repro.errors import WorkloadError

#: Bytes occupied by one vertex in the vertex buffer, used to map vertex
#: fetches onto vertex-cache lines (position 12B + uv 8B + color 12B,
#: padded to 32B).
VERTEX_STRIDE_BYTES = 32


@dataclass(frozen=True)
class Vertex:
    """A mesh vertex: object-space position, texture coordinate, color."""

    position: Vec3
    uv: Vec2
    color: Vec3 = Vec3(1.0, 1.0, 1.0)


@dataclass(frozen=True)
class ShaderProgram:
    """Cost descriptor of a fragment shader program.

    ``alu_cycles`` models the arithmetic length of the program and
    ``texture_samples`` how many texture fetch instructions it issues per
    fragment quad.  The paper's "workload intensity" of a quad (§V-B)
    is precisely this pair.
    """

    name: str = "default"
    alu_cycles: int = 12
    texture_samples: int = 1

    def __post_init__(self) -> None:
        if self.alu_cycles < 1:
            raise WorkloadError("alu_cycles must be >= 1")
        if self.texture_samples < 0:
            raise WorkloadError("texture_samples must be >= 0")


@dataclass
class Mesh:
    """An indexed triangle mesh."""

    vertices: List[Vertex]
    indices: List[int]
    base_address: int = 0

    def __post_init__(self) -> None:
        if len(self.indices) % 3:
            raise WorkloadError("index count must be a multiple of 3")
        if self.indices and max(self.indices) >= len(self.vertices):
            raise WorkloadError("index out of range of vertex buffer")
        if self.indices and min(self.indices) < 0:
            raise WorkloadError("negative vertex index")

    @property
    def num_triangles(self) -> int:
        return len(self.indices) // 3

    def vertex_address(self, index: int) -> int:
        """Byte address of vertex ``index`` in the vertex buffer."""
        return self.base_address + index * VERTEX_STRIDE_BYTES


@dataclass
class DrawCommand:
    """One draw call: a mesh instance with texture and shader state.

    ``late_z`` marks draws whose shader conceptually modifies fragment
    depth: "the Early Z-Test is disabled and the Late Z-Test is
    employed" (paper §II-A) — every rasterized fragment is shaded, and
    the depth test runs after shading instead.
    """

    mesh: Mesh
    texture_id: int
    model_matrix: Mat4 = field(default_factory=Mat4.identity)
    shader: ShaderProgram = field(default_factory=ShaderProgram)
    depth_write: bool = True
    blend: bool = False
    late_z: bool = False


@dataclass
class Scene:
    """A renderable scene: draw commands plus camera matrices."""

    draws: List[DrawCommand] = field(default_factory=list)
    view_matrix: Mat4 = field(default_factory=Mat4.identity)
    projection_matrix: Mat4 = field(default_factory=Mat4.identity)
    name: str = "scene"

    def add(self, draw: DrawCommand) -> None:
        self.draws.append(draw)

    @property
    def num_triangles(self) -> int:
        return sum(d.mesh.num_triangles for d in self.draws)
