"""Barycentric and perspective-correct attribute interpolation."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def barycentric_grid(
    ax, ay, bx, by, cx, cy, area2, px: np.ndarray, py: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized barycentric weights of pixel-centre grids.

    Vertex coordinates and ``area2`` are broadcastable against the
    pixel-centre grids ``px``/``py`` (the fast rasterizer passes
    ``(P, 1, 1)`` per-primitive columns against ``(1, h, w)`` grids).
    Weights sum to 1; points outside the triangle get a negative weight
    (extrapolation), which is what helper lanes need.  The expressions
    mirror the reference rasterizer's inline weights
    (:meth:`~repro.raster.rasterizer.Rasterizer._rasterize_primitive`)
    term for term, so every weight is bit-identical.
    """
    w0 = ((bx - px) * (cy - py) - (cx - px) * (by - py)) / area2
    w1 = ((cx - px) * (ay - py) - (ax - px) * (cy - py)) / area2
    w2 = 1.0 - w0 - w1
    return w0, w1, w2


def interpolate_uv_grid(
    w0: np.ndarray, w1: np.ndarray, w2: np.ndarray,
    a_inv_w, b_inv_w, c_inv_w,
    a_uw, b_uw, c_uw, a_vw, b_vw, c_vw,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized perspective-correct UVs, helper lanes included.

    Matches the reference rasterizer's guarded divide: a zero interpolated
    ``1/w`` divides by 1.0 instead (the lane is outside any valid
    projection and only ever feeds LOD derivatives).
    """
    inv_w = w0 * a_inv_w + w1 * b_inv_w + w2 * c_inv_w
    safe = np.where(inv_w == 0.0, 1.0, inv_w)
    u = (w0 * a_uw + w1 * b_uw + w2 * c_uw) / safe
    v = (w0 * a_vw + w1 * b_vw + w2 * c_vw) / safe
    return u, v

