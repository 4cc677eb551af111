"""Tests for the JSON/dict result export."""

import json

import pytest

from repro.sim.export import run_result_to_dict, suite_result_to_dict
from repro.core.dtexl import BASELINE
from repro.sim.experiment import ExperimentRunner, SuiteResult
from repro.sim.replay import TraceReplayer


@pytest.fixture(scope="module")
def result(tiny_config, tiny_trace):
    return TraceReplayer(tiny_config).run(tiny_trace, BASELINE)


class TestRunResultExport:
    def test_key_fields_present(self, result):
        payload = run_result_to_dict(result)
        for key in [
            "design_point", "l2_accesses", "frame_cycles",
            "energy_total_mj", "l1_replication_factor",
        ]:
            assert key in payload

    def test_values_match(self, result):
        payload = run_result_to_dict(result)
        assert payload["l2_accesses"] == result.l2_accesses
        assert payload["frame_cycles"] == result.frame_cycles
        assert payload["energy_total_mj"] == pytest.approx(
            result.energy.total_mj
        )

    def test_json_round_trips(self, result):
        parsed = json.loads(json.dumps(run_result_to_dict(result)))
        assert parsed["design_point"] == "baseline"

    def test_energy_components_exported(self, result):
        payload = run_result_to_dict(result)
        assert "static" in payload["energy_mj"]
        assert "l2" in payload["energy_mj"]


class TestSuiteExport:
    def test_suite_round_trip(self, tiny_config):
        runner = ExperimentRunner(tiny_config, games=["SWa"])
        suite = runner.run_suite(BASELINE)
        parsed = json.loads(json.dumps(suite_result_to_dict(suite)))
        assert parsed["design_point"] == "baseline"
        assert "SWa" in parsed["games"]
        assert parsed["total_l2_accesses"] == suite.total_l2_accesses
