"""Tests for schedule edge-capture and fairness statistics."""

import pytest

from repro.config import GPUConfig
from repro.core.assignment_stats import schedule_stats
from repro.core.quad_grouping import get_grouping
from repro.core.scheduler import QuadScheduler
from repro.core.subtile_assignment import get_assignment


@pytest.fixture(scope="module")
def config():
    return GPUConfig(screen_width=256, screen_height=256)  # 8x8 tiles


def make(config, grouping="CG-square", assignment="const", order="hilbert"):
    return QuadScheduler(
        config=config,
        grouping=get_grouping(grouping),
        assignment=get_assignment(assignment),
        order_name=order,
    )


class TestEdgeCapture:
    def test_const_on_hilbert_captures_nothing(self, config):
        stats = schedule_stats(make(config, assignment="const"))
        assert stats.capture_rate == 0.0

    def test_flp1_captures_edges(self, config):
        stats = schedule_stats(make(config, assignment="flp1"))
        assert stats.capture_rate > 0.4

    def test_flp2_captures_like_flp1(self, config):
        flp1 = schedule_stats(make(config, assignment="flp1"))
        flp2 = schedule_stats(make(config, assignment="flp2"))
        assert flp2.capture_rate >= flp1.capture_rate * 0.8

    def test_sorder_yrect_const_captures(self, config):
        """Sorder + horizontal strips: strip continuity across columns
        means vertical steps are the only boundary, captured by flp."""
        const = schedule_stats(
            make(config, grouping="CG-yrect", assignment="const",
                 order="sorder")
        )
        flp = schedule_stats(
            make(config, grouping="CG-yrect", assignment="flp1",
                 order="sorder")
        )
        assert flp.capture_rate > const.capture_rate

    def test_adjacent_steps_counted(self, config):
        stats = schedule_stats(make(config, order="sorder"))
        assert stats.adjacent_steps == config.num_tiles - 1


class TestFairness:
    def test_flp1_unfair_on_hilbert(self, config):
        """The paper's Fig 8(d) observation, as a number."""
        stats = schedule_stats(make(config, assignment="flp1"))
        assert stats.fairness < 0.9

    def test_flp2_fairer_than_flp1(self, config):
        flp1 = schedule_stats(make(config, assignment="flp1"))
        flp2 = schedule_stats(make(config, assignment="flp2"))
        assert flp2.fairness > flp1.fairness

    def test_flp3_fairer_than_flp1(self, config):
        flp1 = schedule_stats(make(config, assignment="flp1"))
        flp3 = schedule_stats(make(config, assignment="flp3"))
        assert flp3.fairness > flp1.fairness

    def test_fairness_is_one_when_no_captures(self, config):
        stats = schedule_stats(make(config, assignment="const"))
        assert stats.fairness == 1.0


class TestCompare:
    def test_compare_many(self, config):
        stats = {
            name: schedule_stats(make(config, assignment=name))
            for name in ("const", "flp2")
        }
        assert stats["flp2"].capture_rate > stats["const"].capture_rate
