"""Tests for meshes, shader programs, draw commands and scenes."""

import pytest

from repro.geometry.mesh import (
    VERTEX_STRIDE_BYTES,
    DrawCommand,
    Mesh,
    Scene,
    ShaderProgram,
    Vertex,
)
from repro.geometry.vec import Vec2, Vec3


def quad_mesh(base=0):
    vertices = [
        Vertex(Vec3(0, 0, 0), Vec2(0, 0)),
        Vertex(Vec3(1, 0, 0), Vec2(1, 0)),
        Vertex(Vec3(1, 1, 0), Vec2(1, 1)),
        Vertex(Vec3(0, 1, 0), Vec2(0, 1)),
    ]
    return Mesh(vertices=vertices, indices=[0, 1, 2, 0, 2, 3], base_address=base)


class TestMesh:
    def test_triangle_count(self):
        assert quad_mesh().num_triangles == 2

    def test_vertex_addresses_use_stride(self):
        mesh = quad_mesh(base=1000)
        assert mesh.vertex_address(0) == 1000
        assert mesh.vertex_address(2) == 1000 + 2 * VERTEX_STRIDE_BYTES

    def test_rejects_non_multiple_of_three_indices(self):
        with pytest.raises(ValueError):
            Mesh(vertices=quad_mesh().vertices, indices=[0, 1])

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            Mesh(vertices=quad_mesh().vertices, indices=[0, 1, 9])

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            Mesh(vertices=quad_mesh().vertices, indices=[0, 1, -1])

    def test_empty_mesh_allowed(self):
        mesh = Mesh(vertices=[], indices=[])
        assert mesh.num_triangles == 0


class TestShaderProgram:
    def test_defaults(self):
        shader = ShaderProgram()
        assert shader.alu_cycles >= 1
        assert shader.texture_samples >= 0

    def test_rejects_zero_alu(self):
        with pytest.raises(ValueError):
            ShaderProgram(alu_cycles=0)

    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError):
            ShaderProgram(texture_samples=-1)


class TestVertex:
    def test_default_color_is_white(self):
        v = Vertex(Vec3(0, 0, 0), Vec2(0, 0))
        assert v.color == Vec3(1.0, 1.0, 1.0)


class TestScene:
    def test_add_and_count(self):
        scene = Scene()
        scene.add(DrawCommand(mesh=quad_mesh(), texture_id=0))
        scene.add(DrawCommand(mesh=quad_mesh(), texture_id=1))
        assert scene.num_triangles == 4

    def test_draw_defaults(self):
        draw = DrawCommand(mesh=quad_mesh(), texture_id=0)
        assert draw.depth_write is True
        assert draw.blend is False
