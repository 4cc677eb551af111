"""Tests for the Color Buffer, the Frame Buffer and the Blending unit."""

import pytest

from repro.raster.blending import BlendingUnit
from repro.raster.color_buffer import ColorBuffer, FrameBuffer


class TestColorBuffer:
    def test_write_read_roundtrip(self):
        cb = ColorBuffer(32)
        cb.write(3, 5, (0.1, 0.2, 0.3))
        assert cb.read(3, 5) == pytest.approx((0.1, 0.2, 0.3))

    def test_clear_background(self):
        cb = ColorBuffer(32)
        cb.write(0, 0, (1, 1, 1))
        cb.clear((0.2, 0.2, 0.2))
        assert cb.read(0, 0) == pytest.approx((0.2, 0.2, 0.2))

    def test_rejects_odd_tile(self):
        with pytest.raises(ValueError):
            ColorBuffer(15)

    def test_flush_tile_writes_framebuffer(self):
        cb = ColorBuffer(32)
        fb = FrameBuffer(64, 64, 32)
        cb.write(0, 0, (1.0, 0.5, 0.25))
        cb.flush_tile(fb, (1, 1))
        assert fb.image[32, 32] == pytest.approx([1.0, 0.5, 0.25])
        assert cb.flushes == 1


class TestFrameBuffer:
    def test_edge_tiles_clipped(self):
        """A tile overhanging the screen writes only the valid region."""
        cb = ColorBuffer(32)
        fb = FrameBuffer(48, 48, 32)  # second tile column is half off-screen
        cb.colors[:] = 1.0
        cb.flush_tile(fb, (1, 1))
        assert fb.image[47, 47, 0] == 1.0
        assert fb.image.shape == (48, 48, 3)

    def test_to_ppm_header_and_size(self):
        fb = FrameBuffer(8, 4, 32)
        data = fb.to_ppm()
        assert data.startswith(b"P6 8 4 255\n")
        assert len(data) == len(b"P6 8 4 255\n") + 8 * 4 * 3

    def test_to_ppm_clamps(self):
        fb = FrameBuffer(2, 2, 32)
        fb.image[:] = 2.0
        body = fb.to_ppm().split(b"\n", 1)[1]
        assert body == b"\xff" * 12


class TestBlendingUnit:
    def test_opaque_replaces(self):
        cb = ColorBuffer(32)
        unit = BlendingUnit()
        cb.write(0, 0, (0.5, 0.5, 0.5))
        unit.emit(cb, 0, 0, (1.0, 0.0, 0.0), blend=False)
        assert cb.read(0, 0) == pytest.approx((1.0, 0.0, 0.0))
        assert unit.pixels_written == 1

    def test_blend_mixes_with_destination(self):
        cb = ColorBuffer(32)
        unit = BlendingUnit(alpha=0.5)
        cb.write(0, 0, (0.0, 0.0, 1.0))
        unit.emit(cb, 0, 0, (1.0, 0.0, 0.0), blend=True)
        assert cb.read(0, 0) == pytest.approx((0.5, 0.0, 0.5))
        assert unit.pixels_blended == 1

    def test_full_alpha_behaves_like_replace(self):
        cb = ColorBuffer(32)
        unit = BlendingUnit(alpha=1.0)
        cb.write(0, 0, (0.0, 1.0, 0.0))
        unit.emit(cb, 0, 0, (1.0, 0.0, 0.0), blend=True)
        assert cb.read(0, 0) == pytest.approx((1.0, 0.0, 0.0))

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            BlendingUnit(alpha=1.5)
