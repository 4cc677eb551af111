"""The runtime :class:`TraceSanitizer`: clean replays pass, mutants fail.

A known-good trace/replay pair must sanitize clean for every barrier
architecture (baseline, decoupled DTexL, the single-SC upper bound); a
trace or result corrupted in any of the five mutation classes the issue
names — dropped quad, negative cycles, misses exceeding accesses,
tampered checkpoint hash, broken barrier ordering — must be caught with
a pointer to the violated invariant.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.analysis.lint import TraceSanitizer, Violation, trace_digest
from repro.cli import main
from repro.core.dtexl import BASELINE, DTEXL_BEST, PAPER_CONFIGURATIONS
from repro.errors import InvariantViolationError
from repro.raster.fragment import TileQuads
from repro.sim.experiment import ExperimentRunner
from repro.sim.replay import TraceReplayer

UPPER_BOUND = PAPER_CONFIGURATIONS["upper-bound"]


@pytest.fixture()
def baseline_result(tiny_config, tiny_trace):
    return TraceReplayer(tiny_config).run(tiny_trace, BASELINE)


def violated(violations):
    """The set of invariant families a check() call reported."""
    return {v.invariant for v in violations}


# -- known-good replays -------------------------------------------------------


class TestCleanReplays:
    @pytest.mark.parametrize(
        "design", [BASELINE, DTEXL_BEST, UPPER_BOUND], ids=lambda d: d.name
    )
    def test_replay_sanitizes_clean(self, tiny_config, tiny_trace, design):
        result = TraceReplayer(tiny_config).run(tiny_trace, design)
        sanitizer = TraceSanitizer(tiny_config)
        assert sanitizer.check(tiny_trace, result, design) == []
        sanitizer.sanitize(tiny_trace, result, design)  # must not raise

    def test_game_suite_replay_sanitizes_clean(
        self, small_config, small_game_trace
    ):
        """A real suite game validates end to end, digest included."""
        result = TraceReplayer(small_config).run(small_game_trace, DTEXL_BEST)
        violations = TraceSanitizer(small_config).check(
            small_game_trace, result, DTEXL_BEST,
            expected_digest=trace_digest(small_game_trace),
        )
        assert violations == []

    def test_digest_is_deterministic(self, tiny_trace):
        assert trace_digest(tiny_trace) == trace_digest(
            copy.deepcopy(tiny_trace)
        )
        assert len(trace_digest(tiny_trace)) == 64


# -- the suite-wide fixture ---------------------------------------------------


class TestAutouseFixture:
    def test_experiment_runner_replay_is_sanitized(
        self, tiny_config, monkeypatch
    ):
        """``ExperimentRunner.run`` replays through ``run_stream``,
        not ``TraceReplayer.run``; conftest's fixture must see it too."""
        checked = []
        original = TraceSanitizer.check

        def check(self, trace, result, design, **kwargs):
            checked.append(design.name)
            return original(self, trace, result, design, **kwargs)

        monkeypatch.setattr(TraceSanitizer, "check", check)
        ExperimentRunner(tiny_config, games=["SWa"]).run("SWa", BASELINE)
        assert checked == [BASELINE.name]

    def test_a_batch_runners_memory_hit_is_sanitized(
        self, tiny_config, monkeypatch
    ):
        """A replay whose memory half the runner already holds opens no
        stream; the fixture checks it against the runner's kept trace,
        once per replay."""
        checked = []
        original = TraceSanitizer.check

        def check(self, trace, result, design, **kwargs):
            checked.append(design.name)
            return original(self, trace, result, design, **kwargs)

        monkeypatch.setattr(TraceSanitizer, "check", check)
        runner = ExperimentRunner(tiny_config, games=["SWa"])
        assert runner.run("SWa", BASELINE) == runner.run("SWa", BASELINE)
        assert checked == [BASELINE.name] * 2


# -- the five mutation classes ------------------------------------------------


class TestMutations:
    def test_dropped_quad_is_caught(
        self, tiny_config, tiny_trace, baseline_result
    ):
        mutated = copy.deepcopy(tiny_trace)
        tile = next(
            t for t, entry in sorted(mutated.tiles.items())
            if len(entry.columns)
        )
        entry = mutated.tiles[tile]
        entry.columns = TileQuads.from_quads(entry.quads[:-1])
        violations = TraceSanitizer(tiny_config).check(
            mutated, baseline_result, BASELINE
        )
        assert "quad-conservation" in violated(violations)
        with pytest.raises(InvariantViolationError) as excinfo:
            TraceSanitizer(tiny_config).sanitize(
                mutated, baseline_result, BASELINE
            )
        assert excinfo.value.invariant in violated(violations)

    def test_negative_cycles_are_caught(
        self, tiny_config, tiny_trace, baseline_result
    ):
        mutated = copy.deepcopy(baseline_result)
        mutated.timing.total_cycles = -1
        violations = TraceSanitizer(tiny_config).check(
            tiny_trace, mutated, BASELINE
        )
        assert "cycle-monotonicity" in violated(violations)

    def test_issue_exceeding_busy_is_caught(
        self, tiny_config, tiny_trace, baseline_result
    ):
        mutated = copy.deepcopy(baseline_result)
        mutated.timing.sc_issue_cycles[0] = (
            mutated.timing.sc_busy_cycles[0] + 10
        )
        violations = TraceSanitizer(tiny_config).check(
            tiny_trace, mutated, BASELINE
        )
        assert violated(violations) == {"cycle-monotonicity"}

    def test_misses_exceeding_accesses_are_caught(
        self, tiny_config, tiny_trace, baseline_result
    ):
        mutated = copy.deepcopy(baseline_result)
        mutated.l1_misses = mutated.l1_accesses + 1
        violations = TraceSanitizer(tiny_config).check(
            tiny_trace, mutated, BASELINE
        )
        assert "counter-consistency" in violated(violations)

    def test_phantom_dram_fill_is_caught(
        self, tiny_config, tiny_trace, baseline_result
    ):
        mutated = copy.deepcopy(baseline_result)
        mutated.dram_accesses += 1
        violations = TraceSanitizer(tiny_config).check(
            tiny_trace, mutated, BASELINE
        )
        assert violated(violations) == {"counter-consistency"}
        with pytest.raises(InvariantViolationError) as excinfo:
            TraceSanitizer(tiny_config).sanitize(
                tiny_trace, mutated, BASELINE
            )
        assert excinfo.value.invariant == "counter-consistency"

    def test_tampered_checkpoint_hash_is_caught(
        self, tiny_config, tiny_trace, baseline_result
    ):
        expected = trace_digest(tiny_trace)
        mutated = copy.deepcopy(tiny_trace)
        tile = sorted(mutated.tiles)[0]
        # A plausible-looking tweak: structure intact, content changed.
        mutated.tiles[tile].fetch_cycles += 1
        violations = TraceSanitizer(tiny_config).check(
            mutated, baseline_result, BASELINE, expected_digest=expected
        )
        assert "checkpoint-hash" in violated(violations)
        # The untampered trace still agrees with its own digest.
        assert TraceSanitizer(tiny_config).check(
            tiny_trace, baseline_result, BASELINE, expected_digest=expected
        ) == []

    def test_barrier_order_violation_is_caught(
        self, tiny_config, tiny_trace
    ):
        design = DTEXL_BEST
        result = TraceReplayer(tiny_config).run(tiny_trace, design)
        mutated = copy.deepcopy(result)
        ends = mutated.timing.per_tile_stage_ends
        assert ends, "decoupled replays must record stage completions"
        # Early-Z now "completes" after Blending on the first unit.
        ends[0][0][0] = ends[0][2][0] + 7
        violations = TraceSanitizer(tiny_config).check(
            tiny_trace, mutated, design
        )
        assert "barrier-ordering" in violated(violations)

    def test_negative_stage_completion_is_caught(
        self, tiny_config, tiny_trace
    ):
        design = DTEXL_BEST
        result = TraceReplayer(tiny_config).run(tiny_trace, design)
        mutated = copy.deepcopy(result)
        mutated.timing.per_tile_stage_ends[0][1][0] = -3
        violations = TraceSanitizer(tiny_config).check(
            tiny_trace, mutated, design
        )
        assert "barrier-ordering" in violated(violations)


# -- reporting ----------------------------------------------------------------


class TestReporting:
    def test_violation_str_names_the_invariant(self):
        violation = Violation("quad-conservation", "3 quads went missing")
        assert str(violation) == "[quad-conservation] 3 quads went missing"

    def test_error_message_lists_every_violation(
        self, tiny_config, tiny_trace, baseline_result
    ):
        mutated = copy.deepcopy(baseline_result)
        mutated.l1_misses = mutated.l1_accesses + 1
        mutated.timing.total_cycles = -1
        with pytest.raises(InvariantViolationError) as excinfo:
            TraceSanitizer(tiny_config).sanitize(
                tiny_trace, mutated, BASELINE
            )
        message = str(excinfo.value)
        assert "cycle-monotonicity" in message
        assert "counter-consistency" in message
        assert excinfo.value.invariant  # first violated family is named


# -- CLI ----------------------------------------------------------------------


class TestCli:
    def test_sanitize_clean_game_exits_zero(self, capsys):
        exit_code = main([
            "sanitize", "GTr", "--screen", "128x64", "--json",
            "-d", "baseline", "-d", "HLB-flp2",
        ])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["trace_digest"]) == 64
        assert [row["ok"] for row in payload["designs"]] == [True, True]
        assert all(row["violations"] == [] for row in payload["designs"])
