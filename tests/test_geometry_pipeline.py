"""Tests for the Vertex Stage, Primitive Assembler and clipping."""

import pytest

from repro.geometry.clipping import clip_primitive, cull_backface
from repro.geometry.mesh import DrawCommand, Mesh, Vertex
from repro.geometry.primitive_assembly import Primitive, PrimitiveAssembler
from repro.geometry.transform import orthographic
from repro.geometry.vec import Mat4, Vec2, Vec3, Vec4
from repro.geometry.vertex_stage import TransformedVertex, VertexStage


def tri_mesh():
    vertices = [
        Vertex(Vec3(0, 0, 0), Vec2(0, 0)),
        Vertex(Vec3(10, 0, 0), Vec2(1, 0)),
        Vertex(Vec3(0, 10, 0), Vec2(0, 1)),
    ]
    return Mesh(vertices=vertices, indices=[0, 1, 2])


def make_primitive(positions, pid=0):
    vertices = tuple(
        TransformedVertex(
            clip_position=Vec4(*p), uv=Vec2(0, 0), color=Vec3(1, 1, 1)
        )
        for p in positions
    )
    from repro.geometry.mesh import ShaderProgram
    return Primitive(
        primitive_id=pid, vertices=vertices, texture_id=0,
        shader=ShaderProgram(),
    )


class TestVertexStage:
    def test_output_follows_index_order(self):
        stage = VertexStage()
        draw = DrawCommand(mesh=tri_mesh(), texture_id=0)
        out = stage.run(draw, Mat4.identity(), Mat4.identity())
        assert len(out) == 3
        assert out[0].clip_position.x == 0.0
        assert out[1].clip_position.x == 10.0

    def test_transform_applied(self):
        stage = VertexStage()
        draw = DrawCommand(mesh=tri_mesh(), texture_id=0)
        proj = orthographic(0, 10, 0, 10)
        out = stage.run(draw, Mat4.identity(), proj)
        assert out[1].clip_position.x == pytest.approx(1.0)

    def test_shared_vertices_transformed_once(self):
        stage = VertexStage()
        mesh = Mesh(
            vertices=tri_mesh().vertices, indices=[0, 1, 2, 0, 2, 1]
        )
        draw = DrawCommand(mesh=mesh, texture_id=0)
        stage.run(draw, Mat4.identity(), Mat4.identity())
        assert stage.vertices_processed == 3

    def test_attributes_passed_through(self):
        stage = VertexStage()
        draw = DrawCommand(mesh=tri_mesh(), texture_id=0)
        out = stage.run(draw, Mat4.identity(), Mat4.identity())
        assert out[2].uv == Vec2(0, 1)


class TestPrimitiveAssembler:
    def test_ids_are_global_and_in_program_order(self):
        assembler = PrimitiveAssembler()
        draw = DrawCommand(mesh=tri_mesh(), texture_id=5)
        stage = VertexStage()
        transformed = stage.run(draw, Mat4.identity(), Mat4.identity())
        prims = list(assembler.assemble(draw, transformed))
        prims += list(assembler.assemble(draw, transformed))
        assert [p.primitive_id for p in prims] == [0, 1]

    def test_render_state_captured(self):
        assembler = PrimitiveAssembler()
        draw = DrawCommand(mesh=tri_mesh(), texture_id=5, blend=True,
                           depth_write=False)
        transformed = VertexStage().run(draw, Mat4.identity(), Mat4.identity())
        prim = next(assembler.assemble(draw, transformed))
        assert prim.texture_id == 5
        assert prim.blend is True
        assert prim.depth_write is False

    def test_mismatched_stream_rejected(self):
        assembler = PrimitiveAssembler()
        draw = DrawCommand(mesh=tri_mesh(), texture_id=0)
        with pytest.raises(ValueError):
            list(assembler.assemble(draw, []))

    def test_primitive_requires_three_vertices(self):
        with pytest.raises(ValueError):
            make_primitive([(0, 0, 0, 1), (1, 0, 0, 1)])


class TestClipping:
    def test_fully_inside_passes_unchanged(self):
        prim = make_primitive(
            [(-0.5, -0.5, 0, 1), (0.5, -0.5, 0, 1), (0, 0.5, 0, 1)]
        )
        out = clip_primitive(prim)
        assert len(out) == 1
        assert out[0].vertices == prim.vertices

    def test_fully_outside_right_rejected(self):
        prim = make_primitive(
            [(2, 0, 0, 1), (3, 0, 0, 1), (2, 1, 0, 1)]
        )
        assert clip_primitive(prim) == []

    def test_fully_behind_camera_rejected(self):
        prim = make_primitive(
            [(0, 0, 0, -1), (1, 0, 0, -2), (0, 1, 0, -1)]
        )
        assert clip_primitive(prim) == []

    def test_near_plane_split_produces_triangles(self):
        # One vertex behind the camera: clipping yields a quad -> 2 tris.
        prim = make_primitive(
            [(0, 0, 0, 2), (1, 0, 0, 2), (0, 1, 0, -1)]
        )
        out = clip_primitive(prim)
        assert len(out) == 2
        for clipped in out:
            for vertex in clipped.vertices:
                assert vertex.clip_position.w > 0

    def test_clipped_keep_primitive_id(self):
        prim = make_primitive(
            [(0, 0, 0, 2), (1, 0, 0, 2), (0, 1, 0, -1)], pid=77
        )
        assert all(p.primitive_id == 77 for p in clip_primitive(prim))

    def test_degenerate_culled(self):
        prim = make_primitive(
            [(0, 0, 0, 1), (1, 1, 0, 1), (2, 2, 0, 1)]
        )
        assert cull_backface(prim) is True

    def test_backface_kept_by_default(self):
        ccw = make_primitive(
            [(0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1)]
        )
        cw = make_primitive(
            [(0, 0, 0, 1), (0, 1, 0, 1), (1, 0, 0, 1)]
        )
        assert cull_backface(ccw) is False
        assert cull_backface(cw) is False

    def test_backface_culled_when_requested(self):
        cw = make_primitive(
            [(0, 0, 0, 1), (0, 1, 0, 1), (1, 0, 0, 1)]
        )
        assert cull_backface(cw, cull_back=True) is True
