"""Tests for the DRAM latency model."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DRAMConfig
from repro.memory.dram import DRAM

#: The largest line whose hash product fits an int64.
INT64_EXACT = (2 ** 63 - 1) // 2654435761


class TestLatencyBand:
    @given(st.integers(min_value=0, max_value=10**12))
    @settings(max_examples=100, deadline=None)
    def test_latency_within_table2_band(self, line):
        dram = DRAM()
        latency = dram.latency_for_line(line)
        assert 50 <= latency <= 100

    def test_deterministic(self):
        dram = DRAM()
        assert dram.latency_for_line(1234) == dram.latency_for_line(1234)

    def test_latencies_vary_across_lines(self):
        dram = DRAM()
        latencies = {dram.latency_for_line(line) for line in range(64)}
        assert len(latencies) > 5

    def test_custom_band(self):
        dram = DRAM(DRAMConfig(min_latency=10, max_latency=10))
        assert dram.latency_for_line(99) == 10


class TestLatencies:
    """The numpy hash is :meth:`DRAM.latency_for_line` elementwise."""

    @staticmethod
    def assert_elementwise(dram, lines):
        got = dram.latencies(np.array(lines, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == [dram.latency_for_line(n) for n in lines]

    def test_bound_is_where_int64_wraps(self):
        assert INT64_EXACT == 3_474_701_543
        with np.errstate(over="ignore"):
            wrapped = np.array([INT64_EXACT + 1], dtype=np.int64) * 2654435761
        assert wrapped[0] < 0

    def test_at_and_past_the_int64_bound(self):
        dram = DRAM()
        self.assert_elementwise(dram, [INT64_EXACT])
        self.assert_elementwise(dram, [INT64_EXACT + 1])
        self.assert_elementwise(dram, [0, INT64_EXACT, INT64_EXACT + 1])

    def test_parameter_buffer_base_line(self):
        self.assert_elementwise(DRAM(), [2 ** 28, 2 ** 28 + 1, 2 ** 22])

    @given(st.lists(st.integers(min_value=0, max_value=2 ** 40), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_random_lines_custom_band(self, lines):
        self.assert_elementwise(
            DRAM(DRAMConfig(min_latency=7, max_latency=300)), lines
        )

    def test_access_lines_totals_latencies(self):
        dram = DRAM()
        lines = [3, 2 ** 28, INT64_EXACT + 1]
        total = dram.access_lines(lines)
        assert total == sum(dram.latency_for_line(n) for n in lines)
        assert (dram.stats.accesses, dram.stats.total_latency) == (3, total)
        assert dram.access_lines([]) == 0 and dram.stats.accesses == 3


class TestStats:
    def test_access_accumulates(self):
        dram = DRAM()
        total = sum(dram.access_line(line) for line in range(10))
        assert dram.stats.accesses == 10
        assert dram.stats.total_latency == total
        assert 50 <= dram.stats.total_latency / dram.stats.accesses <= 100

    def test_reset(self):
        dram = DRAM()
        dram.access_line(5)
        dram.reset()
        assert dram.stats.accesses == 0
