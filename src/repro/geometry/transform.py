"""Standard graphics transforms: model/view/projection and viewport."""

from __future__ import annotations

import math

from repro.geometry.vec import Mat4, Vec3
from repro.errors import WorkloadError


def translate(t: Vec3) -> Mat4:
    """Translation matrix."""
    return Mat4(
        [
            [1, 0, 0, t.x],
            [0, 1, 0, t.y],
            [0, 0, 1, t.z],
            [0, 0, 0, 1],
        ]
    )


def look_at(eye: Vec3, target: Vec3, up: Vec3) -> Mat4:
    """Right-handed view matrix looking from ``eye`` towards ``target``."""
    forward = (target - eye).normalized()
    side = forward.cross(up).normalized()
    true_up = side.cross(forward)
    rotation = Mat4(
        [
            [side.x, side.y, side.z, 0],
            [true_up.x, true_up.y, true_up.z, 0],
            [-forward.x, -forward.y, -forward.z, 0],
            [0, 0, 0, 1],
        ]
    )
    return rotation @ translate(Vec3(-eye.x, -eye.y, -eye.z))


def perspective(fov_y_rad: float, aspect: float, near: float, far: float) -> Mat4:
    """OpenGL-style perspective projection (clip z in [-w, w])."""
    if near <= 0 or far <= near:
        raise WorkloadError("require 0 < near < far")
    f = 1.0 / math.tan(fov_y_rad / 2.0)
    return Mat4(
        [
            [f / aspect, 0, 0, 0],
            [0, f, 0, 0],
            [0, 0, (far + near) / (near - far), 2 * far * near / (near - far)],
            [0, 0, -1, 0],
        ]
    )


def orthographic(
    left: float, right: float, bottom: float, top: float,
    near: float = -1.0, far: float = 1.0,
) -> Mat4:
    """Orthographic projection (used by the 2D games)."""
    if right == left or top == bottom or far == near:
        raise WorkloadError("degenerate orthographic volume")
    return Mat4(
        [
            [2 / (right - left), 0, 0, -(right + left) / (right - left)],
            [0, 2 / (top - bottom), 0, -(top + bottom) / (top - bottom)],
            [0, 0, -2 / (far - near), -(far + near) / (far - near)],
            [0, 0, 0, 1],
        ]
    )


def viewport_transform(ndc: Vec3, width: int, height: int) -> Vec3:
    """NDC [-1, 1] -> screen pixels, with depth mapped to [0, 1].

    y is flipped so that screen y grows downwards (raster convention).
    """
    sx = (ndc.x + 1.0) * 0.5 * width
    sy = (1.0 - ndc.y) * 0.5 * height
    sz = (ndc.z + 1.0) * 0.5
    return Vec3(sx, sy, sz)
