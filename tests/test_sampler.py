"""Tests for the texture samplers and LOD computation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.texture.sampler import FilterMode, Sampler, compute_lod
from repro.texture.texture import Texture

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@pytest.fixture
def texture():
    return Texture(0, 256, 256, base_address=1 << 20)


class TestComputeLod:
    def test_one_texel_per_pixel_is_lod_zero(self):
        lod = compute_lod(1 / 256, 0, 0, 1 / 256, 256, 256)
        assert lod == pytest.approx(0.0, abs=1e-9)

    def test_two_texels_per_pixel_is_lod_one(self):
        lod = compute_lod(2 / 256, 0, 0, 2 / 256, 256, 256)
        assert lod == pytest.approx(1.0)

    def test_magnification_clamps_to_zero(self):
        lod = compute_lod(0.1 / 256, 0, 0, 0.1 / 256, 256, 256)
        assert lod == 0.0

    def test_anisotropic_uses_major_axis(self):
        lod = compute_lod(4 / 256, 0, 0, 1 / 256, 256, 256)
        assert lod == pytest.approx(2.0)


class TestFootprints:
    def test_nearest_touches_one_line(self, texture):
        sampler = Sampler(FilterMode.NEAREST)
        fp = sampler.footprint(texture, 0.5, 0.5)
        assert len(fp.lines) == 1
        assert fp.texel_count == 1

    def test_bilinear_touches_four_texels(self, texture):
        sampler = Sampler(FilterMode.BILINEAR)
        fp = sampler.footprint(texture, 0.37, 0.64)
        assert fp.texel_count == 4
        assert 1 <= len(fp.lines) <= 4

    def test_bilinear_at_block_center_one_line(self, texture):
        """A sample well inside a 4x4 Morton block stays in one line."""
        sampler = Sampler(FilterMode.BILINEAR)
        # Texel (1.5, 1.5): neighbourhood {1,2}x{1,2}, inside block 0.
        fp = sampler.footprint(texture, 2.0 / 256, 2.0 / 256)
        assert len(fp.lines) == 1

    def test_trilinear_doubles_texels_between_levels(self, texture):
        sampler = Sampler(FilterMode.TRILINEAR)
        fp = sampler.footprint(texture, 0.3, 0.3, lod=1.5)
        assert fp.texel_count == 8

    def test_trilinear_at_integer_lod_single_level(self, texture):
        sampler = Sampler(FilterMode.TRILINEAR)
        fp = sampler.footprint(texture, 0.3, 0.3, lod=1.0)
        assert fp.texel_count == 4

    def test_anisotropic_probes(self, texture):
        sampler = Sampler(FilterMode.ANISOTROPIC, max_anisotropy=4)
        fp = sampler.footprint(texture, 0.5, 0.5, lod=3.0)
        assert fp.texel_count == 16

    def test_rejects_bad_anisotropy(self):
        with pytest.raises(ValueError):
            Sampler(max_anisotropy=0)

    def test_lod_clamped_to_chain(self, texture):
        sampler = Sampler(FilterMode.BILINEAR)
        fp = sampler.footprint(texture, 0.5, 0.5, lod=99.0)
        assert len(fp.lines) >= 1

    def test_lines_unique_and_ordered(self, texture):
        sampler = Sampler(FilterMode.TRILINEAR)
        fp = sampler.footprint(texture, 0.41, 0.77, lod=2.3)
        assert len(set(fp.lines)) == len(fp.lines)

    @given(unit, unit)
    @settings(max_examples=50, deadline=None)
    def test_footprint_never_empty(self, u, v):
        texture = Texture(0, 64, 64, base_address=1 << 20)
        sampler = Sampler(FilterMode.BILINEAR)
        assert len(sampler.footprint(texture, u, v).lines) >= 1

    @given(unit, unit)
    @settings(max_examples=50, deadline=None)
    def test_adjacent_pixels_share_lines(self, u, v):
        """Spatial locality: samples one texel apart overlap in lines."""
        texture = Texture(0, 256, 256, base_address=1 << 20)
        sampler = Sampler(FilterMode.BILINEAR)
        a = set(sampler.footprint(texture, u, v).lines)
        b = set(sampler.footprint(texture, u + 1.0 / 256, v).lines)
        assert a & b


class TestSampleColor:
    def test_color_in_unit_range(self, texture):
        sampler = Sampler()
        color = sampler.sample_color(texture, 0.123, 0.456)
        assert all(0.0 <= c <= 1.0 for c in color)

    def test_color_at_texel_center_matches_texel(self, texture):
        sampler = Sampler()
        u = (10 + 0.5) / 256
        v = (20 + 0.5) / 256
        expected = tuple(c / 255.0 for c in texture.texel_value(10, 20))
        assert sampler.sample_color(texture, u, v) == pytest.approx(expected)

    def test_deterministic(self, texture):
        sampler = Sampler()
        assert sampler.sample_color(texture, 0.3, 0.9) == sampler.sample_color(
            texture, 0.3, 0.9
        )
