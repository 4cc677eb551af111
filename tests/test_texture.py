"""Tests for textures, mip chains and Morton addressing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.texture.addressing import morton_decode, morton_encode
from repro.texture.texture import (
    LINE_BYTES,
    TEXEL_BYTES,
    Texture,
    TextureAllocator,
)


class TestMorton:
    def test_known_values(self):
        assert morton_encode(0, 0) == 0
        assert morton_encode(1, 0) == 1
        assert morton_encode(0, 1) == 2
        assert morton_encode(1, 1) == 3
        assert morton_encode(2, 0) == 4

    @given(
        st.integers(min_value=0, max_value=2**16 - 1),
        st.integers(min_value=0, max_value=2**16 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, x, y):
        assert morton_decode(morton_encode(x, y)) == (x, y)

    @given(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_injective_within_square(self, x, y):
        other = morton_encode(x + 1, y)
        assert morton_encode(x, y) != other

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            morton_encode(-1, 0)
        with pytest.raises(ValueError):
            morton_decode(-1)

    def test_adjacent_texels_share_cache_line(self):
        """The 4x4 Morton block of a 64B line holds 2D neighbours."""
        texture = Texture(0, 64, 64)
        line_a = texture.texel_line(0, 0)
        assert texture.texel_line(1, 0) == line_a
        assert texture.texel_line(0, 1) == line_a
        assert texture.texel_line(3, 3) == line_a
        assert texture.texel_line(4, 0) != line_a


class TestTexture:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Texture(0, 100, 64)

    def test_mip_chain_terminates_at_one(self):
        texture = Texture(0, 64, 32)
        last = texture.mip_levels[-1]
        assert (last.width, last.height) == (1, 1)

    def test_mip_chain_halves_each_level(self):
        texture = Texture(0, 64, 64)
        assert (texture.mip_levels[1].width, texture.mip_levels[1].height) == (32, 32)

    def test_total_bytes_about_four_thirds(self):
        texture = Texture(0, 256, 256)
        base = 256 * 256 * TEXEL_BYTES
        assert base < texture.total_bytes < base * 4 / 3 + 64

    def test_level_clamps(self):
        texture = Texture(0, 64, 64)
        assert texture.level(-2).level == 0
        assert texture.level(99).level == texture.max_lod

    def test_wrap_repeats(self):
        texture = Texture(0, 64, 64)
        assert texture.wrap(65, -1, 0) == (1, 63)

    def test_addresses_within_texture_range(self):
        texture = Texture(0, 64, 64, base_address=1 << 20)
        for lod in range(texture.num_mip_levels):
            mip = texture.level(lod)
            for x, y in [(0, 0), (mip.width - 1, mip.height - 1)]:
                addr = texture.texel_address(x, y, lod)
                assert 1 << 20 <= addr < (1 << 20) + texture.total_bytes

    def test_mip_levels_do_not_overlap(self):
        texture = Texture(0, 32, 32)
        addr_l0 = texture.texel_address(31, 31, 0)
        addr_l1 = texture.texel_address(0, 0, 1)
        assert addr_l0 < addr_l1

    def test_rectangular_texture_addresses_unique(self):
        texture = Texture(0, 64, 16)
        seen = set()
        for y in range(16):
            for x in range(64):
                addr = texture.texel_address(x, y, 0)
                assert addr not in seen
                seen.add(addr)

    def test_tall_texture_addresses_unique(self):
        texture = Texture(0, 16, 64)
        seen = set()
        for y in range(64):
            for x in range(16):
                addr = texture.texel_address(x, y, 0)
                assert addr not in seen
                seen.add(addr)

    def test_texel_value_deterministic_and_byte_range(self):
        texture = Texture(0, 64, 64, seed=5)
        a = texture.texel_value(3, 4)
        assert a == texture.texel_value(3, 4)
        assert all(0 <= c <= 255 for c in a)

    def test_texel_value_varies(self):
        texture = Texture(0, 64, 64, seed=5)
        values = {texture.texel_value(x, 0) for x in range(16)}
        assert len(values) > 8


class TestTextureAllocator:
    def test_allocations_do_not_overlap(self):
        allocator = TextureAllocator()
        a = allocator.create(64, 64)
        b = allocator.create(128, 128)
        assert a.base_address + a.total_bytes <= b.base_address

    def test_ids_sequential(self):
        allocator = TextureAllocator()
        assert allocator.create(32, 32).texture_id == 0
        assert allocator.create(32, 32).texture_id == 1

    def test_get(self):
        allocator = TextureAllocator()
        texture = allocator.create(32, 32)
        assert allocator.textures[0] is texture

    def test_total_footprint(self):
        allocator = TextureAllocator()
        a = allocator.create(64, 64)
        b = allocator.create(32, 32)
        assert allocator.total_footprint_bytes == a.total_bytes + b.total_bytes

    def test_texture_region_above_vertex_region(self):
        allocator = TextureAllocator()
        texture = allocator.create(32, 32)
        assert texture.base_address >= 1 << 28
