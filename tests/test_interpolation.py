"""Tests for barycentric and perspective-correct interpolation.

Each check evaluates the rasterizer's grid functions on a 1x1 pixel
grid, so it probes the same math the fast rasterizer runs.
"""

import numpy as np
import pytest

from repro.geometry.mesh import ShaderProgram
from repro.geometry.primitive_assembly import Primitive
from repro.geometry.vec import Vec2, Vec3, Vec4
from repro.geometry.vertex_stage import TransformedVertex
from repro.raster.interpolation import barycentric_grid, interpolate_uv_grid
from repro.raster.setup import setup_primitive


def screen_triangle(ws=(1.0, 1.0, 1.0)):
    """NDC triangle covering the left half of a 100x100 screen."""
    data = [
        ((-1, 1, 0), (0.0, 0.0), (1, 0, 0)),
        ((1, 1, 0), (1.0, 0.0), (0, 1, 0)),
        ((-1, -1, 0), (0.0, 1.0), (0, 0, 1)),
    ]
    vertices = tuple(
        TransformedVertex(
            clip_position=Vec4(x * w, y * w, z * w, w),
            uv=Vec2(*uv),
            color=Vec3(*color),
        )
        for ((x, y, z), uv, color), w in zip(data, ws)
    )
    prim = Primitive(
        primitive_id=0, vertices=vertices, texture_id=0,
        shader=ShaderProgram(),
    )
    return setup_primitive(prim, 100, 100)


def weights_at(tri, px, py):
    """``barycentric_grid`` over the 1x1 grid holding point (px, py)."""
    a, b, c = tri.vertices
    return barycentric_grid(
        a.x, a.y, b.x, b.y, c.x, c.y, tri.area2,
        np.full((1, 1), float(px)), np.full((1, 1), float(py)),
    )


def uv_at(tri, px, py):
    """``interpolate_uv_grid`` at point (px, py)."""
    a, b, c = tri.vertices
    u, v = interpolate_uv_grid(
        *weights_at(tri, px, py),
        a.inv_w, b.inv_w, c.inv_w,
        a.u_over_w, b.u_over_w, c.u_over_w,
        a.v_over_w, b.v_over_w, c.v_over_w,
    )
    return float(u[0, 0]), float(v[0, 0])


class TestBarycentric:
    def test_weights_sum_to_one_everywhere(self):
        tri = screen_triangle()
        for point in [(10, 10), (50, 50), (200, -50)]:
            weights = weights_at(tri, *point)
            assert float(sum(weights)[0, 0]) == pytest.approx(1.0)

    def test_vertices_have_unit_weight(self):
        tri = screen_triangle()
        w = weights_at(tri, 0.0, 0.0)
        assert w[0][0, 0] == pytest.approx(1.0)
        w = weights_at(tri, 100.0, 0.0)
        assert w[1][0, 0] == pytest.approx(1.0)

    def test_outside_point_has_negative_weight(self):
        tri = screen_triangle()
        weights = weights_at(tri, 90.0, 90.0)
        assert min(float(w[0, 0]) for w in weights) < 0.0


class TestAffineInterpolation:
    def test_depth_linear_in_screen_space(self):
        """The rasterizers' depth, ``w0*a.z + w1*b.z + w2*c.z``."""
        tri = screen_triangle()
        a, b, c = tri.vertices
        w0, w1, w2 = weights_at(tri, 50.0, 0.0)
        z = w0 * a.z + w1 * b.z + w2 * c.z
        assert float(z[0, 0]) == pytest.approx(0.5)

    def test_uv_affine_when_w_equal(self):
        tri = screen_triangle()
        u, v = uv_at(tri, 50.0, 0.0)
        assert u == pytest.approx(0.5)
        assert v == pytest.approx(0.0)

    def test_color_at_vertex(self):
        """The reference shader's perspective-correct vertex colour."""
        tri = screen_triangle()
        a, b, c = tri.vertices
        w0, w1, w2 = (float(w[0, 0]) for w in weights_at(tri, 0.0, 100.0))
        inv_w = w0 * a.inv_w + w1 * b.inv_w + w2 * c.inv_w
        color = [
            (w0 * a.color_over_w[i] + w1 * b.color_over_w[i]
             + w2 * c.color_over_w[i]) / inv_w
            for i in range(3)
        ]
        assert color == pytest.approx([0, 0, 1])


class TestPerspectiveCorrection:
    def test_uv_biased_towards_near_vertex(self):
        """With w=(1, 3): the screen midpoint must sample u < 0.5 —
        perspective pulls texture coordinates towards the nearer vertex."""
        tri = screen_triangle(ws=(1.0, 3.0, 1.0))
        u, _ = uv_at(tri, 50.0, 0.0)
        assert u < 0.5

    def test_exact_hyperbolic_midpoint(self):
        """u at the screen midpoint of an edge with w=(1, 3) is 1/4:
        u = (0/1 + 1/3)/(1/1 + 1/3) * ... analytic = (1/3)/(4/3)."""
        tri = screen_triangle(ws=(1.0, 3.0, 1.0))
        u, _ = uv_at(tri, 50.0, 0.0)
        assert u == pytest.approx(0.25)
