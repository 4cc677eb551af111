"""Tests for repro.config — Table II parameters and derived geometry."""

import dataclasses

import pytest

from repro.config import (
    KIB,
    MIB,
    CacheConfig,
    DRAMConfig,
    GPUConfig,
    PAPER_CONFIG,
    ShaderConfig,
    TEST_CONFIG,
)


class TestCacheConfig:
    def test_table2_texture_cache_geometry(self):
        cache = PAPER_CONFIG.texture_cache
        assert cache.size_bytes == 16 * KIB
        assert cache.line_bytes == 64
        assert cache.associativity == 4
        assert cache.hit_latency == 1

    def test_table2_l2_geometry(self):
        l2 = PAPER_CONFIG.l2_cache
        assert l2.size_bytes == 1 * MIB
        assert l2.associativity == 8
        assert l2.hit_latency == 12

    def test_table2_vertex_and_tile_caches(self):
        assert PAPER_CONFIG.vertex_cache.size_bytes == 8 * KIB
        assert PAPER_CONFIG.tile_cache.size_bytes == 64 * KIB

    def test_num_lines_and_sets(self):
        cache = CacheConfig("c", 16 * KIB, line_bytes=64, associativity=4)
        assert cache.num_lines == 256
        assert cache.num_sets == 64

    def test_rejects_non_multiple_size(self):
        with pytest.raises(ValueError):
            CacheConfig("c", 1000, line_bytes=64)

    def test_rejects_bad_associativity(self):
        with pytest.raises(ValueError):
            CacheConfig("c", 16 * KIB, line_bytes=64, associativity=3)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            CacheConfig("c", 0)


class TestDRAMConfig:
    def test_table2_latency_band(self):
        assert PAPER_CONFIG.dram.min_latency == 50
        assert PAPER_CONFIG.dram.max_latency == 100

    def test_rejects_inverted_band(self):
        with pytest.raises(ValueError):
            DRAMConfig(min_latency=100, max_latency=50)

    def test_rejects_zero_latency(self):
        with pytest.raises(ValueError):
            DRAMConfig(min_latency=0, max_latency=10)


class TestShaderConfig:
    def test_defaults_positive(self):
        shader = ShaderConfig()
        assert shader.max_warps > 0
        assert shader.miss_overhead_cycles >= 0

    def test_rejects_zero_warps(self):
        with pytest.raises(ValueError):
            ShaderConfig(max_warps=0)

    def test_rejects_negative_overhead(self):
        with pytest.raises(ValueError):
            ShaderConfig(miss_overhead_cycles=-1)


class TestGPUConfig:
    def test_table2_globals(self):
        assert PAPER_CONFIG.screen_width == 1960
        assert PAPER_CONFIG.screen_height == 768
        assert PAPER_CONFIG.tile_size == 32
        assert PAPER_CONFIG.frequency_mhz == 600
        assert PAPER_CONFIG.num_shader_cores == 4

    def test_tile_grid_rounds_up(self):
        # 1960/32 = 61.25 -> 62 columns; 768/32 = 24 rows.
        assert PAPER_CONFIG.tiles_x == 62
        assert PAPER_CONFIG.tiles_y == 24
        assert PAPER_CONFIG.num_tiles == 62 * 24

    def test_quads_per_tile(self):
        assert PAPER_CONFIG.quads_per_tile_side == 16
        assert PAPER_CONFIG.quads_per_tile_side ** 2 == 256

    def test_scaled_changes_only_screen(self):
        scaled = GPUConfig(screen_width=512, screen_height=256)
        assert scaled.screen_width == 512
        assert scaled.tile_size == PAPER_CONFIG.tile_size
        assert scaled.l2_cache == PAPER_CONFIG.l2_cache

    def test_upper_bound_config(self):
        ub = PAPER_CONFIG.with_upper_bound_cache()
        assert ub.num_shader_cores == 1
        assert ub.texture_cache.size_bytes == 4 * PAPER_CONFIG.texture_cache.size_bytes
        assert ub.texture_cache.associativity == PAPER_CONFIG.texture_cache.associativity

    def test_rejects_odd_tile_size(self):
        with pytest.raises(ValueError):
            GPUConfig(tile_size=31)

    def test_rejects_bad_core_count(self):
        with pytest.raises(ValueError):
            GPUConfig(num_shader_cores=3)

    def test_rejects_nonpositive_screen(self):
        with pytest.raises(ValueError):
            GPUConfig(screen_width=0)

    def test_test_config_is_smaller(self):
        assert TEST_CONFIG.num_tiles < PAPER_CONFIG.num_tiles

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PAPER_CONFIG.tile_size = 16
