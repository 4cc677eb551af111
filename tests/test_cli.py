"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EXIT_FATAL, EXIT_OK, EXIT_PARTIAL, build_parser, main


class TestParser:
    def test_info_parses(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info"

    def test_replay_collects_designs(self):
        args = build_parser().parse_args(
            ["replay", "GTr", "-d", "baseline", "-d", "HLB-flp2"]
        )
        assert args.design == ["baseline", "HLB-flp2"]

    def test_screen_parser_paper(self):
        args = build_parser().parse_args(["replay", "GTr", "--screen", "paper"])
        assert args.screen.screen_width == 1960

    def test_screen_parser_custom(self):
        args = build_parser().parse_args(["replay", "GTr", "--screen", "64x32"])
        assert args.screen.screen_width == 64
        assert args.screen.screen_height == 32

    def test_rejects_unknown_game(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["render", "NOPE"])

    def test_rejects_missing_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Candy Crush Saga" in out
        assert "HLB-flp2" in out
        assert "CG-square" in out

    def test_schedule(self, capsys):
        assert main(
            ["schedule", "--screen", "128x64", "--tiles", "2",
             "--grouping", "CG-yrect", "--order", "sorder"]
        ) == 0
        out = capsys.readouterr().out
        assert "CG-yrect" in out
        assert "step 1" in out

    def test_replay_table(self, capsys):
        assert main(
            ["replay", "SWa", "--screen", "128x64", "-d", "baseline"]
        ) == 0
        out = capsys.readouterr().out
        assert "L2 accesses" in out
        assert "baseline" in out

    def test_replay_json(self, capsys):
        assert main(
            ["replay", "SWa", "--screen", "128x64", "-d", "baseline",
             "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["design_point"] == "baseline"

    def test_replay_unknown_design_errors(self, capsys):
        code = main(["replay", "SWa", "--screen", "128x64", "-d", "wat"])
        assert code != 0
        err = capsys.readouterr().err
        assert "unknown design point" in err
        assert "Traceback" not in err

    def test_render_writes_ppm(self, tmp_path, capsys):
        output = tmp_path / "frame.ppm"
        assert main(
            ["render", "SWa", "--screen", "128x64", "-o", str(output)]
        ) == 0
        assert output.read_bytes().startswith(b"P6 128 64")

    def test_suite_subset(self, capsys):
        assert main(
            ["suite", "--screen", "128x64", "--games", "SWa",
             "-d", "baseline", "-d", "CG-square-coupled"]
        ) == 0
        out = capsys.readouterr().out
        assert "CG-square-coupled" in out

    def test_suite_json(self, capsys):
        assert main(
            ["suite", "--screen", "128x64", "--games", "SWa",
             "-d", "baseline", "--json"]
        ) == 0
        (suite,) = json.loads(capsys.readouterr().out)
        assert suite["design_point"] == "baseline"
        assert list(suite["games"]) == ["SWa"]

    @pytest.mark.parametrize(
        "argv",
        [["render", "SWa"], ["sweep"], ["animate", "SWa"], ["schedule"]],
        ids=["render", "sweep", "animate", "schedule"],
    )
    def test_json_rejected_where_output_is_not_json(self, argv, capsys):
        """Only replay, suite, sanitize and chaos print JSON."""
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--json"])
        assert exit_.value.code == EXIT_FATAL
        assert "--json" in capsys.readouterr().err


class TestSweepAndAnimate:
    def test_sweep_table(self, capsys):
        assert main(
            ["sweep", "--screen", "128x64", "--games", "SWa",
             "--grouping", "FG-xshift2", "CG-square",
             "--both-architectures"]
        ) == 0
        out = capsys.readouterr().out
        assert "best by speedup" in out
        assert "CG-square" in out

    def test_sweep_csv(self, capsys):
        assert main(
            ["sweep", "--screen", "128x64", "--games", "SWa",
             "--grouping", "FG-xshift2", "--csv"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("grouping,assignment,order,decoupled")

    def test_animate(self, capsys):
        assert main(
            ["animate", "SWa", "--screen", "128x64", "--frames", "2",
             "-d", "baseline"]
        ) == 0
        out = capsys.readouterr().out
        assert "warm-up ratio" in out
        assert "baseline" in out

    def test_sweep_rejects_bad_task_timeout(self, capsys):
        assert main(
            ["sweep", "--screen", "128x64", "--games", "SWa",
             "--grouping", "FG-xshift2", "--task-timeout", "0"]
        ) == EXIT_FATAL
        assert "task_timeout_s must be positive" in capsys.readouterr().err

    def test_chaos_smoke(self, capsys):
        assert main(
            ["chaos", "--trials", "1", "--seed", "0", "--jobs", "1"]
        ) == EXIT_OK
        out = capsys.readouterr().out
        assert "trial   0" in out
        assert "all trials converged" in out

    def test_chaos_json(self, capsys):
        assert main(
            ["chaos", "--trials", "1", "--seed", "0", "--jobs", "1",
             "--json"]
        ) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert len(payload["trials"]) == 1


class TestFriendlyErrors:
    """Bad names and bad values exit nonzero with a message, no traceback."""

    def test_suite_unknown_game(self, capsys):
        assert main(
            ["suite", "--screen", "128x64", "--games", "SWa,NOPE"]
        ) == EXIT_FATAL
        err = capsys.readouterr().err
        assert "unknown game" in err and "NOPE" in err
        assert "Traceback" not in err

    def test_sweep_unknown_game(self, capsys):
        assert main(
            ["sweep", "--screen", "128x64", "--games", "XX"]
        ) == EXIT_FATAL
        err = capsys.readouterr().err
        assert "unknown game" in err
        assert "Traceback" not in err

    def test_suite_unknown_design(self, capsys):
        assert main(
            ["suite", "--screen", "128x64", "--games", "SWa", "-d", "nope"]
        ) == EXIT_FATAL
        err = capsys.readouterr().err
        assert "unknown design point" in err
        assert "Traceback" not in err

    def test_invalid_screen_value(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", "SWa", "--screen", "0x32"])
        assert excinfo.value.code == 2
        assert "screen dimensions must be positive" in capsys.readouterr().err

    def test_malformed_screen_value(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", "SWa", "--screen", "huge"])
        assert excinfo.value.code == 2
        assert "invalid" in capsys.readouterr().err

    def test_resume_requires_checkpoint_dir(self, capsys):
        assert main(
            ["sweep", "--screen", "128x64", "--games", "SWa", "--resume"]
        ) == EXIT_FATAL
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_nonpositive_budget_rejected(self, capsys):
        assert main(
            ["sweep", "--screen", "128x64", "--games", "SWa",
             "--budget", "0"]
        ) == EXIT_FATAL
        assert "--budget" in capsys.readouterr().err


class TestResilientSweepCli:
    def test_budget_kills_baseline_fatally(self, capsys):
        # The quad budget applies to every replay, baseline included;
        # a baseline that cannot run is fatal, not partial.
        assert main(
            ["sweep", "--screen", "128x64", "--games", "SWa",
             "--grouping", "FG-xshift2", "--budget", "1"]
        ) == EXIT_FATAL
        err = capsys.readouterr().err
        assert "quad budget" in err
        assert "Traceback" not in err

    def test_partial_failure_exit_code(self, capsys, monkeypatch):
        from repro.sim.replay import TraceReplayer
        from repro.errors import ReplayError

        real_run_stream = TraceReplayer.run_stream

        def sabotaged(self, stream, design, hierarchy=None, memo=None):
            if design.grouping == "CG-square":
                raise ReplayError("injected")
            return real_run_stream(
                self, stream, design, hierarchy=hierarchy, memo=memo
            )

        monkeypatch.setattr(TraceReplayer, "run_stream", sabotaged)
        assert main(
            ["sweep", "--screen", "128x64", "--games", "SWa",
             "--grouping", "FG-xshift2", "CG-square"]
        ) == EXIT_PARTIAL
        captured = capsys.readouterr()
        assert "FAILED CG-square/const/zorder/dec" in captured.err
        assert "ReplayError" in captured.err
        assert "failure(s)" in captured.out

    def test_checkpointed_sweep_resumes(self, tmp_path, capsys):
        args = ["sweep", "--screen", "128x64", "--games", "SWa",
                "--grouping", "FG-xshift2", "--csv",
                "--checkpoint-dir", str(tmp_path)]
        assert main(args) == EXIT_OK
        first_csv = capsys.readouterr().out
        assert main(args + ["--resume"]) == EXIT_OK
        assert capsys.readouterr().out == first_csv
        assert (tmp_path / "manifest.json").is_file()
        assert (tmp_path / "sweep_progress.jsonl").is_file()

    def test_max_retries_flag_parses(self):
        args = build_parser().parse_args(
            ["sweep", "--max-retries", "2", "--budget", "100",
             "--checkpoint-dir", "d", "--resume"]
        )
        assert args.max_retries == 2
        assert args.budget == 100
        assert args.resume
