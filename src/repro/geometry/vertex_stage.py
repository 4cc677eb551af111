"""The Vertex Stage of the Geometry Pipeline.

"A Draw Command triggers the Geometry Pipeline and the Vertex Stage starts
fetching vertices from memory using an L1 Vertex Cache.  It then transforms
them according to a vertex program."  Here the vertex program is the
standard model-view-projection transform.  Pass 1 only records the
fetches: the renderer keeps each index's vertex cache line, in index
order, as the frame's ``vertex_lines``, and pass 2 drives them through
the L1 Vertex Cache and the shared L2
(``MemoryHierarchy.vertex_access_lines``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.geometry.mesh import DrawCommand, Vertex
from repro.geometry.vec import Mat4, Vec2, Vec3, Vec4


@dataclass(frozen=True)
class TransformedVertex:
    """A vertex after the vertex program: clip-space position + attributes."""

    clip_position: Vec4
    uv: Vec2
    color: Vec3

    @staticmethod
    def lerp(a: "TransformedVertex", b: "TransformedVertex", t: float) -> "TransformedVertex":
        """Linear interpolation in clip space (used by the clipper)."""
        return TransformedVertex(
            clip_position=Vec4.lerp(a.clip_position, b.clip_position, t),
            uv=a.uv + (b.uv - a.uv) * t,
            color=a.color + (b.color - a.color) * t,
        )


@dataclass
class VertexBatch:
    """Structure-of-arrays form of a draw's transformed vertex stream.

    One row per *index slot* (not per unique vertex), in index-buffer
    order — exactly the stream :meth:`VertexStage.run` produces as a
    list of :class:`TransformedVertex`.  Each value is bit-identical to
    the scalar path's: the batched MVP transform applies the same
    multiply/add sequence in the same IEEE association order.
    """

    clip_x: np.ndarray
    clip_y: np.ndarray
    clip_z: np.ndarray
    clip_w: np.ndarray
    u: np.ndarray
    v: np.ndarray
    color_r: np.ndarray
    color_g: np.ndarray
    color_b: np.ndarray

    def __len__(self) -> int:
        return len(self.clip_x)


class VertexStage:
    """Transforms the vertices of a draw command into clip space."""

    def __init__(self):
        self.vertices_processed = 0

    def run(
        self,
        draw: DrawCommand,
        view: Mat4,
        projection: Mat4,
    ) -> List[TransformedVertex]:
        """Transform every vertex of ``draw`` into clip space.

        The stream follows index order — the order the Primitive
        Assembler consumes it; each vertex is transformed once however
        many indices share it.
        """
        mvp = projection @ view @ draw.model_matrix
        transformed: List[Optional[TransformedVertex]] = (
            [None] * len(draw.mesh.vertices)
        )
        out: List[TransformedVertex] = []
        for index in draw.mesh.indices:
            cached = transformed[index]
            if cached is None:
                cached = self._transform_one(draw.mesh.vertices[index], mvp)
                transformed[index] = cached
                self.vertices_processed += 1
            out.append(cached)
        return out

    @staticmethod
    def _transform_one(vertex: Vertex, mvp: Mat4) -> TransformedVertex:
        clip = mvp.transform_point(vertex.position)
        return TransformedVertex(
            clip_position=clip, uv=vertex.uv, color=vertex.color
        )

    def run_batch(
        self,
        draw: DrawCommand,
        view: Mat4,
        projection: Mat4,
    ) -> VertexBatch:
        """Vectorized :meth:`run`: the same stream as structure-of-arrays.

        Bit-exactness: :meth:`~repro.geometry.vec.Mat4.transform`
        evaluates each component as ``sum(row[k] * t[k])`` — Python's
        ``sum`` starts from integer 0, so the association order is
        ``(((0 + r0*x) + r1*y) + r2*z) + r3*1.0``; adding 0 (or +0.0)
        to the first product is IEEE-exact (it only normalizes -0.0 to
        +0.0, exactly as the scalar path does).  The expressions below
        replay that order elementwise, so every clip-space coordinate
        matches the scalar path bit for bit.
        """
        mvp = projection @ view @ draw.model_matrix
        vertices = draw.mesh.vertices
        xs = np.array([vert.position.x for vert in vertices], dtype=np.float64)
        ys = np.array([vert.position.y for vert in vertices], dtype=np.float64)
        zs = np.array([vert.position.z for vert in vertices], dtype=np.float64)
        rows = mvp.rows
        clip = [
            (((0.0 + row[0] * xs) + row[1] * ys) + row[2] * zs) + row[3] * 1.0
            for row in rows
        ]
        us = np.array([vert.uv.x for vert in vertices], dtype=np.float64)
        vs = np.array([vert.uv.y for vert in vertices], dtype=np.float64)
        crs = np.array([vert.color.x for vert in vertices], dtype=np.float64)
        cgs = np.array([vert.color.y for vert in vertices], dtype=np.float64)
        cbs = np.array([vert.color.z for vert in vertices], dtype=np.float64)

        index = np.asarray(draw.mesh.indices, dtype=np.intp)
        self.vertices_processed += len(set(draw.mesh.indices))
        return VertexBatch(
            clip_x=clip[0][index],
            clip_y=clip[1][index],
            clip_z=clip[2][index],
            clip_w=clip[3][index],
            u=us[index],
            v=vs[index],
            color_r=crs[index],
            color_g=cgs[index],
            color_b=cbs[index],
        )
