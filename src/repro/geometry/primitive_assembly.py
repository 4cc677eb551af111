"""The Primitive Assembler.

"The Primitive Assembler takes the vertices in program order and joins
them to produce primitives."  A :class:`Primitive` carries its three
transformed vertices plus the rendering state (texture, shader) it was
drawn with; primitive ids are assigned globally in program order, which
the Polygon List Builder and Rasterizer rely on for correctness (quads
of primitive *i* must complete before quads of primitive *i+1* within a
tile).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from repro.geometry.mesh import DrawCommand, ShaderProgram
from repro.geometry.vertex_stage import TransformedVertex, VertexBatch
from repro.errors import WorkloadError


@dataclass(frozen=True)
class Primitive:
    """An assembled triangle in clip space with its render state."""

    primitive_id: int
    vertices: Sequence[TransformedVertex]  # exactly 3
    texture_id: int
    shader: ShaderProgram
    depth_write: bool = True
    blend: bool = False
    late_z: bool = False

    def __post_init__(self) -> None:
        if len(self.vertices) != 3:
            raise WorkloadError("a primitive is a triangle: need 3 vertices")

    def with_vertices(self, vertices: Sequence[TransformedVertex]) -> "Primitive":
        """Copy with replaced vertices (used by the clipper)."""
        return Primitive(
            primitive_id=self.primitive_id,
            vertices=tuple(vertices),
            texture_id=self.texture_id,
            shader=self.shader,
            depth_write=self.depth_write,
            blend=self.blend,
            late_z=self.late_z,
        )


@dataclass
class PrimitiveBatch:
    """Structure-of-arrays form of a draw's assembled triangles.

    Vertex attributes are ``(T, 3)`` arrays (one row per triangle, one
    column per corner, in index-triple order); ``pid`` carries the
    program-order primitive ids the scalar assembler would have
    assigned.  Render state is uniform per draw and kept scalar.
    """

    cx: np.ndarray
    cy: np.ndarray
    cz: np.ndarray
    cw: np.ndarray
    u: np.ndarray
    v: np.ndarray
    cr: np.ndarray
    cg: np.ndarray
    cb: np.ndarray
    pid: np.ndarray
    texture_id: int
    shader: ShaderProgram
    depth_write: bool
    blend: bool
    late_z: bool

    def __len__(self) -> int:
        return len(self.pid)


class PrimitiveAssembler:
    """Joins transformed vertices into triangles in program order."""

    def __init__(self) -> None:
        self._next_id = 0

    def assemble(
        self, draw: DrawCommand, transformed: List[TransformedVertex]
    ) -> Iterator[Primitive]:
        """Yield one primitive per index triple of the draw command.

        ``transformed`` must be in index order, exactly as produced by
        :meth:`repro.geometry.vertex_stage.VertexStage.run`.
        """
        if len(transformed) != len(draw.mesh.indices):
            raise WorkloadError(
                "transformed vertex stream does not match the index buffer"
            )
        for i in range(0, len(transformed), 3):
            primitive = Primitive(
                primitive_id=self._next_id,
                vertices=tuple(transformed[i : i + 3]),
                texture_id=draw.texture_id,
                shader=draw.shader,
                depth_write=draw.depth_write,
                blend=draw.blend,
                late_z=draw.late_z,
            )
            self._next_id += 1
            yield primitive

    def assemble_batch(
        self, draw: DrawCommand, batch: VertexBatch
    ) -> PrimitiveBatch:
        """Vectorized :meth:`assemble`: one SoA row per index triple.

        Consumes the same global id counter as the scalar path, so a
        renderer may not mix both methods for the same frame's draws in
        anything but program order.
        """
        if len(batch) != len(draw.mesh.indices):
            raise WorkloadError(
                "transformed vertex stream does not match the index buffer"
            )
        count = len(batch) // 3
        pid = np.arange(self._next_id, self._next_id + count, dtype=np.int64)
        self._next_id += count
        return PrimitiveBatch(
            cx=batch.clip_x.reshape(count, 3),
            cy=batch.clip_y.reshape(count, 3),
            cz=batch.clip_z.reshape(count, 3),
            cw=batch.clip_w.reshape(count, 3),
            u=batch.u.reshape(count, 3),
            v=batch.v.reshape(count, 3),
            cr=batch.color_r.reshape(count, 3),
            cg=batch.color_g.reshape(count, 3),
            cb=batch.color_b.reshape(count, 3),
            pid=pid,
            texture_id=draw.texture_id,
            shader=draw.shader,
            depth_write=draw.depth_write,
            blend=draw.blend,
            late_z=draw.late_z,
        )
