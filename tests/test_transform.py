"""Tests for graphics transforms."""

import math

import pytest

from repro.geometry.transform import (
    look_at,
    orthographic,
    perspective,
    translate,
    viewport_transform,
)
from repro.geometry.vec import Vec3


class TestBasicTransforms:
    def test_translate(self):
        m = translate(Vec3(1, 2, 3))
        assert m.transform_point(Vec3(0, 0, 0)).xyz() == Vec3(1, 2, 3)


class TestLookAt:
    def test_eye_maps_to_origin(self):
        view = look_at(Vec3(1, 2, 3), Vec3(0, 0, 0), Vec3(0, 1, 0))
        at_origin = view.transform_point(Vec3(1, 2, 3)).xyz()
        assert at_origin.length() == pytest.approx(0.0, abs=1e-12)

    def test_target_on_negative_z(self):
        view = look_at(Vec3(0, 0, 5), Vec3(0, 0, 0), Vec3(0, 1, 0))
        target = view.transform_point(Vec3(0, 0, 0)).xyz()
        assert target.z == pytest.approx(-5.0)
        assert target.x == pytest.approx(0.0, abs=1e-12)


class TestPerspective:
    def test_point_on_near_plane_maps_to_minus_one(self):
        proj = perspective(math.radians(90), 1.0, 1.0, 100.0)
        clip = proj.transform_point(Vec3(0, 0, -1.0))
        assert clip.perspective_divide().z == pytest.approx(-1.0)

    def test_point_on_far_plane_maps_to_plus_one(self):
        proj = perspective(math.radians(90), 1.0, 1.0, 100.0)
        clip = proj.transform_point(Vec3(0, 0, -100.0))
        assert clip.perspective_divide().z == pytest.approx(1.0)

    def test_w_is_view_depth(self):
        proj = perspective(math.radians(60), 2.0, 0.5, 50.0)
        clip = proj.transform_point(Vec3(0, 0, -7.0))
        assert clip.w == pytest.approx(7.0)

    def test_rejects_bad_planes(self):
        with pytest.raises(ValueError):
            perspective(1.0, 1.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            perspective(1.0, 1.0, 0.0, 1.0)


class TestOrthographic:
    def test_corners_map_to_ndc_corners(self):
        proj = orthographic(0, 100, 50, 0)
        low = proj.transform_point(Vec3(0, 50, 0)).perspective_divide()
        high = proj.transform_point(Vec3(100, 0, 0)).perspective_divide()
        assert (low.x, low.y) == pytest.approx((-1.0, -1.0))
        assert (high.x, high.y) == pytest.approx((1.0, 1.0))

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            orthographic(0, 0, 0, 1)


class TestViewport:
    def test_center_of_ndc_is_screen_center(self):
        screen = viewport_transform(Vec3(0, 0, 0), 200, 100)
        assert (screen.x, screen.y) == (100.0, 50.0)
        assert screen.z == 0.5

    def test_y_flips(self):
        top = viewport_transform(Vec3(0, 1, 0), 200, 100)
        assert top.y == 0.0
        bottom = viewport_transform(Vec3(0, -1, 0), 200, 100)
        assert bottom.y == 100.0

    def test_depth_range(self):
        near = viewport_transform(Vec3(0, 0, -1), 10, 10)
        far = viewport_transform(Vec3(0, 0, 1), 10, 10)
        assert near.z == 0.0
        assert far.z == 1.0

    def test_ndc_to_screen_xy(self):
        screen = viewport_transform(Vec3(-1, 1, 0), 64, 32)
        assert (screen.x, screen.y) == (0.0, 0.0)
