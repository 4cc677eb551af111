"""Tests for the overdraw / depth-complexity analysis."""

import numpy as np
import pytest

from repro.analysis.overdraw import (
    overdraw_ascii,
    overdraw_stats,
    shaded_pixel_map,
)


class TestShadedPixelMap:
    def test_counts_match_trace(self, tiny_config, tiny_trace):
        depth_map = shaded_pixel_map(tiny_trace, tiny_config)
        assert int(depth_map.sum()) == tiny_trace.stats.pixels_shaded

    def test_shape(self, tiny_config, tiny_trace):
        depth_map = shaded_pixel_map(tiny_trace, tiny_config)
        assert depth_map.shape == (
            tiny_config.screen_height, tiny_config.screen_width
        )

    def test_background_covers_everything(self, tiny_config, tiny_trace):
        depth_map = shaded_pixel_map(tiny_trace, tiny_config)
        assert depth_map.min() >= 1  # the background layer


class TestOverdrawStats:
    def test_uniform_map(self):
        stats = overdraw_stats(np.full((32, 64), 2, dtype=np.int32))
        assert stats.mean == pytest.approx(2.0)
        assert stats.peak == 2
        assert stats.concentration == pytest.approx(0.1, rel=0.01)

    def test_hot_spot_concentration(self):
        depth_map = np.ones((40, 40), dtype=np.int32)
        depth_map[:4, :40] = 50  # one hot band = exactly 10% of pixels
        stats = overdraw_stats(depth_map)
        assert stats.concentration > 0.8

    def test_horizontal_bands_detected(self):
        depth_map = np.ones((40, 40), dtype=np.int32)
        depth_map[10:14, :] = 20  # horizontal stripe
        stats = overdraw_stats(depth_map)
        assert stats.horizontal_clustering > 2.0

    def test_vertical_bands_inverted(self):
        depth_map = np.ones((40, 40), dtype=np.int32)
        depth_map[:, 10:14] = 20  # vertical stripe
        stats = overdraw_stats(depth_map)
        assert stats.horizontal_clustering < 0.5

    def test_suite_clusters_horizontally(self, tiny_config, tiny_trace):
        """The synthetic scenes show the paper's gravity effect."""
        depth_map = shaded_pixel_map(tiny_trace, tiny_config)
        stats = overdraw_stats(depth_map)
        assert stats.mean >= 1.0
        assert stats.peak >= stats.mean


class TestPerTileOverdraw:
    def test_every_tile_reported(self, tiny_config, tiny_trace):
        assert len(tiny_trace.tiles) == tiny_config.num_tiles

    def test_values_consistent_with_totals(self, tiny_config, tiny_trace):
        total = sum(
            entry.columns.covered_pixels
            for entry in tiny_trace.tiles.values()
        )
        assert total == tiny_trace.stats.pixels_shaded


class TestAsciiHeatmap:
    def test_dimensions(self):
        depth_map = np.ones((32, 64), dtype=np.int32)
        art = overdraw_ascii(depth_map, block=8)
        lines = art.splitlines()
        assert len(lines) == 4
        assert len(lines[0]) == 8

    def test_hot_region_darker(self):
        depth_map = np.ones((16, 16), dtype=np.int32)
        depth_map[:8, :8] = 100
        art = overdraw_ascii(depth_map, block=8)
        assert art.splitlines()[0][0] == "@"
