"""Tests for the shader-core multithreaded timing model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ShaderConfig
from repro.shader.shader_core import ShaderCore, WarpCost


def core(max_warps=4, issue_rate=1):
    return ShaderCore(ShaderConfig(max_warps=max_warps, issue_rate=issue_rate))


class TestModel:
    def test_empty_subtile_is_free(self):
        result = core().execute_subtile([])
        assert result.total_cycles == 0
        assert result.num_warps == 0

    def test_single_warp_hides_nothing(self):
        result = core().execute_subtile([WarpCost(10, 30)])
        assert result.total_cycles == 40

    def test_full_occupancy_divides_stall(self):
        warps = [WarpCost(10, 40)] * 4
        result = core(max_warps=4).execute_subtile(warps)
        assert result.total_cycles == 40 + 160 // 4

    def test_hiding_capped_by_max_warps(self):
        warps = [WarpCost(10, 40)] * 16
        few = core(max_warps=2).execute_subtile(warps)
        many = core(max_warps=8).execute_subtile(warps)
        assert few.total_cycles > many.total_cycles

    def test_hiding_capped_by_warp_count(self):
        """Two warps can only hide as two, even with 8 slots."""
        warps = [WarpCost(10, 40)] * 2
        result = core(max_warps=8).execute_subtile(warps)
        assert result.total_cycles == 20 + 80 // 2

    def test_issue_rate_scales_compute(self):
        warps = [WarpCost(10, 0)] * 4
        slow = core(issue_rate=1).execute_subtile(warps)
        fast = core(issue_rate=2).execute_subtile(warps)
        assert fast.total_cycles == slow.total_cycles // 2

    def test_compute_only(self):
        result = core().execute_subtile([WarpCost(7, 0)] * 3)
        assert result.total_cycles == 21
        assert result.stall_cycles == 0

    def test_hidden_stall_accounting(self):
        warps = [WarpCost(10, 40)] * 4
        result = core(max_warps=4).execute_subtile(warps)
        exposed = result.total_cycles - result.compute_cycles
        assert result.stall_cycles - exposed == 160 - 40

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            WarpCost(-1, 0)


class TestAccounting:
    def test_busy_and_issue_cycles_accumulate(self):
        c = core()
        c.execute_subtile([WarpCost(10, 40)] * 4)
        c.execute_subtile([WarpCost(5, 0)])
        assert c.issue_cycles == 45
        assert c.busy_cycles > c.issue_cycles
        assert c.warps_executed == 5

    def test_reset(self):
        c = core()
        c.execute_subtile([WarpCost(10, 10)])
        c.reset()
        assert c.busy_cycles == 0
        assert c.issue_cycles == 0
        assert c.warps_executed == 0


class TestProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=100),
                st.integers(min_value=0, max_value=500),
            ),
            max_size=50,
        ),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_time_bounded_by_serial_and_ideal(self, costs, max_warps):
        warps = [WarpCost(c, s) for c, s in costs]
        result = core(max_warps=max_warps).execute_subtile(warps)
        compute = sum(c for c, _ in costs)
        stall = sum(s for _, s in costs)
        assert result.total_cycles <= compute + stall
        assert result.total_cycles >= compute

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_stall(self, n):
        light = core(max_warps=4).execute_subtile([WarpCost(10, 10)] * n)
        heavy = core(max_warps=4).execute_subtile([WarpCost(10, 20)] * n)
        assert heavy.total_cycles >= light.total_cycles
