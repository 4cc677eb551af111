"""Tests for fault-isolated sweeps, retries, budgets and manifests."""

import json

import pytest

from repro.core.dtexl import BASELINE
from repro.errors import BudgetExceededError, ReplayError, ReproError
from repro.sim.experiment import ExperimentRunner, SuiteResult
from repro.sim.replay import TraceReplayer
from repro.sim.resilience import (
    FailureRecord,
    ReplayBudget,
    RetryPolicy,
    run_guarded,
)
from repro.sim.sweep import DesignSweep, rows_to_csv


class FlakyRunner(ExperimentRunner):
    """Fails a chosen design point a fixed number of times, then works.

    ``calls`` records every replay asked of it, as (design, game).
    """

    def __init__(self, *args, flaky_design="", failures_left=0,
                 transient=True, **kwargs):
        super().__init__(*args, **kwargs)
        self.flaky_design = flaky_design
        self.failures_left = failures_left
        self.transient = transient
        self.calls = []

    def run(self, alias, design):
        self.calls.append((design.name, alias))
        if design.name == self.flaky_design and self.failures_left > 0:
            self.failures_left -= 1
            raise ReproError("injected flake", transient=self.transient)
        return super().run(alias, design)


#: A grid whose third grouping cannot be resolved: its design points
#: crash inside the replay, exercising the per-point error boundary.
BAD_GROUPING = "no-such-grouping"


def make_sweep(groupings):
    return DesignSweep(
        groupings=groupings,
        assignments=["const"],
        orders=["zorder"],
        decoupled=[True],
    )


class TestRunGuarded:
    def test_success_passes_through(self):
        result, failure = run_guarded(lambda: 42, design_point="p")
        assert result == 42 and failure is None

    def test_failure_is_recorded(self):
        def boom():
            raise ReplayError("broken")

        result, failure = run_guarded(boom, design_point="p", game="SWa")
        assert result is None
        assert failure == FailureRecord(
            design_point="p", game="SWa", error_type="ReplayError",
            message="broken", attempts=1,
        )

    def test_transient_failures_are_retried(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise ReproError("flake", transient=True)
            return "ok"

        result, failure = run_guarded(
            flaky, design_point="p", policy=RetryPolicy(max_retries=2)
        )
        assert result == "ok" and failure is None
        assert len(calls) == 3

    def test_deterministic_failures_are_not_retried(self):
        calls = []

        def broken():
            calls.append(1)
            raise ReplayError("always")

        _, failure = run_guarded(
            broken, design_point="p", policy=RetryPolicy(max_retries=5)
        )
        assert len(calls) == 1
        assert failure.attempts == 1

    def test_keyboard_interrupt_propagates(self):
        def interrupted():
            raise KeyboardInterrupt()

        with pytest.raises(KeyboardInterrupt):
            run_guarded(interrupted, design_point="p")


class TestSuiteComparisonErrors:
    def test_mismatched_game_lists(self, tiny_config):
        runner = ExperimentRunner(tiny_config, games=["SWa"])
        candidate = runner.run_suite(BASELINE)
        empty_baseline = SuiteResult(design_point="base")
        with pytest.raises(ReplayError, match="was not run over game"):
            candidate.mean_speedup_vs(empty_baseline)
        with pytest.raises(ReplayError, match="was not run over game"):
            candidate.mean_l2_decrease_vs(empty_baseline)

    def test_empty_candidate(self, tiny_config):
        runner = ExperimentRunner(tiny_config, games=["SWa"])
        baseline = runner.run_suite(BASELINE)
        empty = SuiteResult(design_point="empty")
        with pytest.raises(ReplayError, match="no per-game results"):
            empty.mean_speedup_vs(baseline)


class TestBudget:
    def test_quad_budget_kills_replay(self, tiny_config, tiny_trace):
        replayer = TraceReplayer(
            tiny_config, budget=ReplayBudget(max_quads=1)
        )
        with pytest.raises(BudgetExceededError, match="quad budget"):
            replayer.run(tiny_trace, BASELINE)

    def test_generous_budget_is_silent(self, tiny_config, tiny_trace):
        replayer = TraceReplayer(
            tiny_config, budget=ReplayBudget(max_quads=10**9)
        )
        unbounded = TraceReplayer(tiny_config).run(tiny_trace, BASELINE)
        assert replayer.run(tiny_trace, BASELINE) == unbounded


class TestFaultIsolatedSweep:
    def test_one_bad_point_of_four(self, tiny_config):
        """The acceptance scenario: 4 points, 1 fails, 3 survive intact."""
        runner = ExperimentRunner(tiny_config, games=["SWa"])
        grid = ["FG-xshift2", "CG-square", BAD_GROUPING, "CG-yrect"]
        report = make_sweep(grid).run(runner)
        assert len(report.failures) == 1
        assert report.failures[0].design_point == (
            f"{BAD_GROUPING}/const/zorder/dec"
        )
        assert report.failures[0].game == "SWa"
        assert report.outcome == "partial"

        clean = make_sweep(
            ["FG-xshift2", "CG-square", "CG-yrect"]
        ).run(ExperimentRunner(tiny_config, games=["SWa"]))
        assert clean.outcome == "success"
        assert report.rows == clean.rows

    def test_transient_point_recovers_with_retries(self, tiny_config):
        flaky_name = "CG-square/const/zorder/dec"
        runner = FlakyRunner(
            tiny_config, games=["SWa"],
            flaky_design=flaky_name, failures_left=1,
        )
        report = make_sweep(["FG-xshift2", "CG-square"]).run(
            runner, retry_policy=RetryPolicy(max_retries=1)
        )
        assert report.failures == []
        assert len(report.rows) == 2

    def test_transient_point_fails_without_retries(self, tiny_config):
        flaky_name = "CG-square/const/zorder/dec"
        runner = FlakyRunner(
            tiny_config, games=["SWa"],
            flaky_design=flaky_name, failures_left=1,
        )
        report = make_sweep(["FG-xshift2", "CG-square"]).run(runner)
        assert [f.design_point for f in report.failures] == [flaky_name]

    def test_fail_fast_stops_after_first_game(self, tiny_config):
        """A point whose first game fails never replays its second: the
        serial executor runs a task only when the walk asks for it."""
        flaky_name = "CG-square/const/zorder/dec"
        runner = FlakyRunner(
            tiny_config, games=["SWa", "GTr"],
            flaky_design=flaky_name, failures_left=99, transient=False,
        )
        report = make_sweep(["CG-square", "FG-xshift2"]).run(runner, jobs=1)
        assert [(f.design_point, f.game) for f in report.failures] == [
            (flaky_name, "SWa")
        ]
        assert runner.calls == [
            ("baseline", "SWa"), ("baseline", "GTr"),
            (flaky_name, "SWa"),
            ("FG-xshift2/const/zorder/dec", "SWa"),
            ("FG-xshift2/const/zorder/dec", "GTr"),
        ]
        assert len(report.rows) == 1

    def test_baseline_failure_is_fatal(self, tiny_config):
        runner = FlakyRunner(
            tiny_config, games=["SWa"],
            flaky_design="baseline", failures_left=99, transient=False,
        )
        with pytest.raises(ReproError):
            make_sweep(["FG-xshift2"]).run(runner)


class TestResume:
    def test_killed_campaign_resumes_without_rerendering(
        self, tmp_path, tiny_config
    ):
        ckpt = tmp_path / "ckpt"
        # "Killed midway": the first run only covers half the grid.
        first = ExperimentRunner(tiny_config, games=["SWa"])
        partial = make_sweep(["FG-xshift2", "CG-square"]).run(
            first, checkpoint_dir=ckpt
        )
        assert first.renders_performed == 1

        # The re-run extends to the full grid and resumes.
        second = ExperimentRunner(tiny_config, games=["SWa"])
        full = make_sweep(
            ["FG-xshift2", "CG-square", "CG-yrect"]
        ).run(second, checkpoint_dir=ckpt, resume=True)
        assert second.renders_performed == 0  # the render-count probe
        assert full.resumed == [r.grouping + "/const/zorder/dec"
                                for r in partial.rows]

        # Identical final CSV to an uninterrupted run of the full grid.
        fresh = make_sweep(
            ["FG-xshift2", "CG-square", "CG-yrect"]
        ).run(ExperimentRunner(tiny_config, games=["SWa"]))
        assert rows_to_csv(full.rows) == rows_to_csv(fresh.rows)

    def test_fully_resumed_campaign_does_no_work(self, tmp_path, tiny_config):
        ckpt = tmp_path / "ckpt"
        grid = ["FG-xshift2", "CG-square"]
        make_sweep(grid).run(
            ExperimentRunner(tiny_config, games=["SWa"]), checkpoint_dir=ckpt
        )
        rerun = ExperimentRunner(tiny_config, games=["SWa"])
        report = make_sweep(grid).run(
            rerun, checkpoint_dir=ckpt, resume=True
        )
        assert rerun.renders_performed == 0
        assert len(report.resumed) == 2
        assert len(report.rows) == 2

    def test_without_resume_flag_rows_are_recomputed(
        self, tmp_path, tiny_config
    ):
        ckpt = tmp_path / "ckpt"
        grid = ["FG-xshift2"]
        make_sweep(grid).run(
            ExperimentRunner(tiny_config, games=["SWa"]), checkpoint_dir=ckpt
        )
        rerun = ExperimentRunner(tiny_config, games=["SWa"])
        report = make_sweep(grid).run(rerun, checkpoint_dir=ckpt)
        assert report.resumed == []
        # Traces still come from the store even without row resume.
        assert rerun.renders_performed == 0


    @pytest.mark.parametrize("stream", ["batch", "streaming"])
    def test_each_campaign_keeps_its_own_frames(
        self, tmp_path, tiny_config, stream
    ):
        """One runner swept into two campaign directories leaves each
        whole: a fresh runner (another host's resume) replays either
        one without rendering."""
        games = ["SWa", "GTr"]
        sweep = make_sweep(["CG-square"])
        runner = ExperimentRunner(tiny_config, games=games, stream=stream)
        first, second = (
            sweep.run(runner, checkpoint_dir=tmp_path / name)
            for name in ("a", "b")
        )
        assert first.rows == second.rows
        for name in ("a", "b"):
            fresh = ExperimentRunner(tiny_config, games=games, stream=stream)
            rerun = sweep.run(fresh, checkpoint_dir=tmp_path / name)
            assert rerun.rows == first.rows
            assert fresh.renders_performed == 0

    def test_sweep_hands_the_runner_back(self, tmp_path, tiny_config):
        """The campaign's store binds the runner only during ``run``,
        whether it returns or raises."""
        own = tmp_path / "own"
        runner = FlakyRunner(
            tiny_config, games=["SWa"], store_dir=own,
            flaky_design="baseline", failures_left=1, transient=False,
        )
        trace = runner.trace_for("SWa")
        with pytest.raises(ReproError, match="injected flake"):
            make_sweep(["CG-square"]).run(
                runner, checkpoint_dir=tmp_path / "raised"
            )
        assert runner.store_dir == own
        make_sweep(["CG-square"]).run(
            runner, checkpoint_dir=tmp_path / "returned"
        )
        assert runner.store_dir == own
        assert runner.trace_for("SWa") is trace
        assert runner.renders_performed == 2  # own store, then "returned"


class TestManifest:
    def test_manifest_written_and_readable(self, tmp_path, tiny_config):
        ckpt = tmp_path / "ckpt"
        runner = ExperimentRunner(tiny_config, games=["SWa"])
        report = make_sweep(["FG-xshift2", BAD_GROUPING]).run(
            runner, checkpoint_dir=ckpt
        )
        payload = json.loads((ckpt / "manifest.json").read_text("utf-8"))
        assert payload["outcome"] == "partial"
        assert payload["games"] == ["SWa"]
        assert payload["design_points_attempted"] == [
            "FG-xshift2/const/zorder/dec",
            f"{BAD_GROUPING}/const/zorder/dec",
        ]
        assert payload["design_points_succeeded"] == [
            "FG-xshift2/const/zorder/dec"
        ]
        assert payload["design_points_failed"] == [
            f"{BAD_GROUPING}/const/zorder/dec"
        ]
        assert payload["failures"][0]["error_type"]
        assert payload["wall_time_s"] >= 0.0
        assert report.manifest.as_dict() == payload

    def test_manifest_outcomes(self, tiny_config):
        runner = ExperimentRunner(tiny_config, games=["SWa"])
        success = make_sweep(["FG-xshift2"]).run(runner)
        assert success.manifest.outcome == "success"
        fatal = make_sweep([BAD_GROUPING]).run(runner)
        assert fatal.manifest.outcome == "fatal"
