"""Tests for the paper-metric helpers in repro.stats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import (
    geometric_mean,
    mean_deviation,
    per_tile_imbalance,
    per_tile_imbalance_distribution,
    percent_decrease,
    violin_summary,
)

positive = st.floats(min_value=0.01, max_value=1e6, allow_nan=False)


class TestMeanDeviation:
    def test_uniform_is_zero(self):
        assert mean_deviation([5, 5, 5, 5]) == 0.0

    def test_known_value(self):
        # values 0, 10: mean 5, mad 5, normalized 1.0.
        assert mean_deviation([0, 10]) == pytest.approx(1.0)

    def test_empty_is_zero(self):
        assert mean_deviation([]) == 0.0

    def test_all_zero_is_zero(self):
        assert mean_deviation([0, 0, 0]) == 0.0

    @given(st.lists(positive, min_size=1, max_size=20), positive)
    @settings(max_examples=50, deadline=None)
    def test_scale_invariant(self, values, k):
        scaled = [v * k for v in values]
        assert mean_deviation(scaled) == pytest.approx(
            mean_deviation(values), rel=1e-6
        )

    @given(st.lists(positive, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_bounded(self, values):
        dev = mean_deviation(values)
        assert 0.0 <= dev <= 2.0  # MAD/mean is at most 2 for positives


class TestPerTileImbalance:
    def test_skips_idle_tiles(self):
        tiles = [[0, 0, 0, 0], [10, 0, 0, 0]]
        # Only the second tile counts: mean 2.5, mad (7.5+2.5*3)/4 = 3.75.
        assert per_tile_imbalance(tiles) == pytest.approx(1.5)

    def test_all_idle_is_zero(self):
        assert per_tile_imbalance([[0, 0], [0, 0]]) == 0.0

    def test_distribution_in_percent(self):
        dist = per_tile_imbalance_distribution([[0, 10], [5, 5]])
        assert dist == [pytest.approx(100.0), 0.0]


class TestGeometricMean:
    def test_known(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)

    def test_identity(self):
        assert geometric_mean([3.5]) == pytest.approx(3.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    @given(st.lists(positive, min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_between_min_and_max(self, values):
        gm = geometric_mean(values)
        assert min(values) * 0.999 <= gm <= max(values) * 1.001


class TestRatios:
    def test_percent_decrease(self):
        assert percent_decrease(200, 100) == pytest.approx(50.0)

    def test_percent_decrease_negative_when_worse(self):
        assert percent_decrease(100, 150) == pytest.approx(-50.0)

    def test_percent_decrease_zero_baseline(self):
        assert percent_decrease(0, 10) == 0.0


class TestViolinSummary:
    def test_summary_fields(self):
        summary = violin_summary([1.0, 2.0, 3.0, 10.0])
        assert summary["min"] == 1.0
        assert summary["max"] == 10.0
        assert summary["mean"] == 4.0
        assert summary["median"] == 2.5
        assert summary["n"] == 4

    def test_odd_median(self):
        assert violin_summary([3.0, 1.0, 2.0])["median"] == 2.0

    def test_empty(self):
        assert violin_summary([])["n"] == 0
