"""Tests for the event-energy GPU power model."""

import pytest

from repro.power.energy_model import EnergyBreakdown, EnergyModel, EnergyParams


def frame(model, **overrides):
    # Ratios mirror a real replayed frame: SCs busy most of the frame,
    # ~2.5 texture accesses per quad, ~20% L1 miss rate.
    kwargs = dict(
        l1_accesses=160_000,
        l2_accesses=32_000,
        dram_accesses=2_000,
        vertex_accesses=4_000,
        tile_accesses=4_000,
        sc_issue_cycles=300_000,
        quads_processed=64_000,
        frame_cycles=100_000,
        frequency_mhz=600,
    )
    kwargs.update(overrides)
    return model.frame_energy(**kwargs)


class TestEnergyParams:
    def test_defaults_nonnegative(self):
        EnergyParams()  # must not raise

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EnergyParams(l2_access_nj=-1.0)

    def test_event_energies_ordered_by_structure_size(self):
        p = EnergyParams()
        assert p.l1_access_nj < p.l2_access_nj < p.dram_access_nj


class TestBreakdown:
    def test_total_is_sum_of_components(self):
        breakdown = frame(EnergyModel())
        assert breakdown.total_mj == pytest.approx(
            sum(breakdown.components_mj.values())
        )

    def test_dynamic_excludes_static(self):
        breakdown = frame(EnergyModel())
        dynamic = sum(
            mj for name, mj in breakdown.components_mj.items()
            if name != "static"
        )
        assert breakdown.components_mj["static"] > 0.0
        assert dynamic == pytest.approx(
            breakdown.total_mj - breakdown.components_mj["static"]
        )

    def test_fractions_sum_to_one(self):
        breakdown = frame(EnergyModel())
        total = sum(
            mj / breakdown.total_mj
            for mj in breakdown.components_mj.values()
        )
        assert total == pytest.approx(1.0)

    def test_empty_breakdown(self):
        empty = EnergyBreakdown()
        assert empty.total_mj == 0.0
        assert empty.components_mj == {}


class TestScaling:
    def test_static_scales_with_frame_time(self):
        model = EnergyModel()
        short = frame(model, frame_cycles=10_000)
        long = frame(model, frame_cycles=20_000)
        assert long.components_mj["static"] == pytest.approx(
            2 * short.components_mj["static"]
        )

    def test_l2_component_scales_with_accesses(self):
        model = EnergyModel()
        few = frame(model, l2_accesses=100)
        many = frame(model, l2_accesses=300)
        assert many.components_mj["l2"] == pytest.approx(
            3 * few.components_mj["l2"]
        )

    def test_faster_clock_reduces_static_energy(self):
        model = EnergyModel()
        slow = frame(model, frequency_mhz=300)
        fast = frame(model, frequency_mhz=600)
        assert fast.components_mj["static"] < slow.components_mj["static"]

    def test_dram_dominates_per_event(self):
        model = EnergyModel()
        breakdown = frame(model, l2_accesses=100, dram_accesses=100,
                          l1_accesses=100)
        assert (
            breakdown.components_mj["dram"]
            > breakdown.components_mj["l2"]
            > breakdown.components_mj["l1_texture"]
        )

    def test_static_fraction_reasonable(self):
        """Calibration guard: 20-55% of a typical frame is static."""
        breakdown = frame(EnergyModel())
        static = breakdown.components_mj["static"] / breakdown.total_mj
        assert 0.1 < static < 0.7


class TestFramebufferWrites:
    def test_component_present_and_scaling(self):
        model = EnergyModel()
        none = frame(model, framebuffer_write_lines=0)
        some = frame(model, framebuffer_write_lines=10_000)
        assert none.components_mj["framebuffer"] == 0.0
        assert some.components_mj["framebuffer"] > 0.0
        more = frame(model, framebuffer_write_lines=20_000)
        assert more.components_mj["framebuffer"] == pytest.approx(
            2 * some.components_mj["framebuffer"]
        )

    def test_rejects_negative_write_energy(self):
        with pytest.raises(ValueError):
            EnergyParams(framebuffer_write_nj=-0.1)
