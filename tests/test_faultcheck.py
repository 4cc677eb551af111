"""The ``faultcheck`` exception-flow pass: taxonomy, escapes, six checks."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.arch import Baseline, CallGraph, ModuleGraph
from repro.analysis.arch.baseline import TODO_JUSTIFICATION
from repro.analysis.flow import (
    EscapeAnalysis,
    ExceptionTaxonomy,
    FlowConfig,
    extract_flows,
    extract_handlers,
)
from repro.analysis.gates import GateOptions, run_gates
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Flow config pointing the analyzer at the synthetic ``pkg`` package.
FLOW_CONFIG = FlowConfig(faults_module="pkg.faults", cli_module="pkg.cli")

#: A small program that passes every faultcheck pass.  Each mutation
#: fixture below perturbs exactly one property of it.
CLEAN_TREE = {
    "pkg/__init__.py": "",
    "pkg/errors.py": (
        "class PkgError(Exception):\n"
        "    transient = False\n"
        "\n"
        "class FlakyError(PkgError):\n"
        "    transient = True\n"
        "\n"
        "class HardError(PkgError):\n"
        "    pass\n"
        "\n"
        "def is_transient(error):\n"
        "    return bool(getattr(error, 'transient', False))\n"
    ),
    "pkg/faults.py": (
        "SITE_SAVE = 'checkpoint.save'\n"
        "SITE_WORK = 'replay.work'\n"
        "\n"
        "class InjectedKill(BaseException):\n"
        "    pass\n"
        "\n"
        "def fault_point(site, key=None):\n"
        "    return None\n"
    ),
    "pkg/core.py": (
        "from pkg import faults\n"
        "from pkg.errors import FlakyError, HardError\n"
        "\n"
        "def risky():\n"
        "    faults.fault_point(faults.SITE_WORK)\n"
        "    raise FlakyError('flaky')\n"
        "\n"
        "def save():\n"
        "    faults.fault_point(faults.SITE_SAVE)\n"
        "    raise HardError('hard')\n"
        "\n"
        "def guarded():\n"
        "    attempt = 0\n"
        "    while True:\n"
        "        attempt += 1\n"
        "        try:\n"
        "            return risky()\n"
        "        except FlakyError:\n"
        "            if attempt > 3:\n"
        "                raise\n"
        "            continue\n"
    ),
    "pkg/cli.py": (
        "import sys\n"
        "from pkg.core import risky, save\n"
        "from pkg.errors import PkgError\n"
        "\n"
        "EXIT_OK = 0\n"
        "EXIT_FATAL = 2\n"
        "\n"
        "def cmd_run(args):\n"
        "    risky()\n"
        "    return EXIT_OK\n"
        "\n"
        "def cmd_save(args):\n"
        "    save()\n"
        "    return EXIT_OK\n"
        "\n"
        "def main(argv=None):\n"
        "    try:\n"
        "        return cmd_run(None)\n"
        "    except PkgError as error:\n"
        "        print(error, file=sys.stderr)\n"
        "        return EXIT_FATAL\n"
    ),
}


def write_tree(root: Path, files: dict) -> Path:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


def run_flow(tmp_path: Path, files: dict, baseline=None,
             update_baseline: bool = False):
    src = write_tree(tmp_path / "src", files)
    if baseline is None:
        baseline = Baseline(path=tmp_path / "baseline.json")
    (report,) = run_gates(
        ["faultcheck"],
        GateOptions(src=str(src), package="pkg", flow=FLOW_CONFIG),
        baseline, update_baseline=update_baseline,
    )
    return report


def mutate(extra: dict) -> dict:
    files = dict(CLEAN_TREE)
    files.update(extra)
    return files


def rules_of(report) -> set:
    return {finding.rule for finding in report.findings}


# -- the taxonomy -------------------------------------------------------------


class TestTaxonomy:
    def build(self, tmp_path, files=None):
        src = write_tree(tmp_path / "src", files or CLEAN_TREE)
        graph = ModuleGraph.build(src, packages=["pkg"])
        return graph, ExceptionTaxonomy.build(graph)

    def test_indexes_project_exception_classes(self, tmp_path):
        _, taxonomy = self.build(tmp_path)
        assert "pkg.errors.PkgError" in taxonomy.classes
        assert "pkg.errors.FlakyError" in taxonomy.classes
        assert "pkg.faults.InjectedKill" in taxonomy.classes

    def test_non_exception_classes_are_excluded(self, tmp_path):
        files = mutate({
            "pkg/plain.py": "class Widget:\n    pass\n",
        })
        _, taxonomy = self.build(tmp_path, files)
        assert "pkg.plain.Widget" not in taxonomy.classes

    def test_catches_follows_the_hierarchy(self, tmp_path):
        _, taxonomy = self.build(tmp_path)
        assert taxonomy.catches("pkg.errors.PkgError",
                                "pkg.errors.FlakyError")
        assert taxonomy.catches("Exception", "pkg.errors.HardError")
        assert not taxonomy.catches("pkg.errors.FlakyError",
                                    "pkg.errors.PkgError")

    def test_injected_kill_is_not_an_exception_subclass(self, tmp_path):
        _, taxonomy = self.build(tmp_path)
        assert not taxonomy.is_exception_subclass("pkg.faults.InjectedKill")
        assert taxonomy.is_exception_subclass("pkg.errors.HardError")

    def test_transiency_is_inherited_and_overridable(self, tmp_path):
        files = mutate({
            "pkg/more.py": (
                "from pkg.errors import FlakyError\n"
                "class StillFlaky(FlakyError):\n"
                "    pass\n"
                "class Pinned(FlakyError):\n"
                "    transient = False\n"
            ),
        })
        _, taxonomy = self.build(tmp_path, files)
        assert taxonomy.is_transient("pkg.errors.FlakyError")
        assert taxonomy.is_transient("pkg.more.StillFlaky")
        assert not taxonomy.is_transient("pkg.more.Pinned")
        assert not taxonomy.is_transient("pkg.errors.HardError")

    def test_resolve_falls_back_to_unique_last_segment(self, tmp_path):
        _, taxonomy = self.build(tmp_path)
        assert taxonomy.resolve("faults.InjectedKill") == (
            "pkg.faults.InjectedKill"
        )
        assert taxonomy.resolve("ValueError") == "ValueError"
        assert taxonomy.resolve("some.Unknown") is None


# -- escape propagation -------------------------------------------------------


class TestEscapeAnalysis:
    def analyze(self, tmp_path, files):
        src = write_tree(tmp_path / "src", files)
        graph = ModuleGraph.build(src, packages=["pkg"])
        taxonomy = ExceptionTaxonomy.build(graph)
        callgraph = CallGraph(graph)
        flows = extract_flows(graph, callgraph, taxonomy)
        return EscapeAnalysis(flows, taxonomy)

    def test_direct_raises_escape(self, tmp_path):
        escapes = self.analyze(tmp_path, CLEAN_TREE)
        assert escapes.escaping("pkg.core.risky") == {
            "pkg.errors.FlakyError"
        }

    def test_escapes_propagate_through_callers(self, tmp_path):
        escapes = self.analyze(tmp_path, CLEAN_TREE)
        assert "pkg.errors.FlakyError" in escapes.escaping("pkg.cli.cmd_run")
        assert "pkg.errors.HardError" in escapes.escaping("pkg.cli.cmd_save")

    def test_try_masks_stop_propagation(self, tmp_path):
        files = mutate({
            "pkg/safe.py": (
                "from pkg.core import risky\n"
                "from pkg.errors import FlakyError\n"
                "def absorb():\n"
                "    try:\n"
                "        return risky()\n"
                "    except FlakyError:\n"
                "        return None\n"
            ),
        })
        escapes = self.analyze(tmp_path, files)
        assert escapes.escaping("pkg.safe.absorb") == set()

    def test_reraising_handler_masks_nothing(self, tmp_path):
        files = mutate({
            "pkg/log.py": (
                "from pkg.core import risky\n"
                "from pkg.errors import FlakyError\n"
                "def logged():\n"
                "    try:\n"
                "        return risky()\n"
                "    except FlakyError:\n"
                "        raise\n"
            ),
        })
        escapes = self.analyze(tmp_path, files)
        assert escapes.escaping("pkg.log.logged") == {
            "pkg.errors.FlakyError"
        }

    def test_handler_body_is_not_protected_by_its_own_try(self, tmp_path):
        files = mutate({
            "pkg/wrap.py": (
                "from pkg.errors import FlakyError, HardError\n"
                "def translate():\n"
                "    try:\n"
                "        raise FlakyError('x')\n"
                "    except FlakyError as error:\n"
                "        raise HardError('y') from error\n"
            ),
        })
        escapes = self.analyze(tmp_path, files)
        assert escapes.escaping("pkg.wrap.translate") == {
            "pkg.errors.HardError"
        }


# -- the clean program --------------------------------------------------------


class TestCleanProgram:
    def test_no_findings_on_the_clean_tree(self, tmp_path):
        report = run_flow(tmp_path, CLEAN_TREE)
        assert report.ok, [f.fingerprint for f in report.findings]
        assert report.stats()["exception_classes"] == 4


# -- mutation 1: swallowed kill-class exceptions ------------------------------


class TestSwallowedBaseException:
    def test_swallowed_injected_kill_is_a_finding(self, tmp_path):
        report = run_flow(tmp_path, mutate({
            "pkg/boundary.py": (
                "from pkg import faults\n"
                "def shield(fn):\n"
                "    try:\n"
                "        return fn()\n"
                "    except faults.InjectedKill:\n"
                "        return None\n"
            ),
        }))
        assert rules_of(report) == {"swallowed-base-exception"}
        (finding,) = report.findings
        assert "InjectedKill" in finding.message
        assert "pkg.boundary.shield" in finding.fingerprint

    def test_bare_except_that_swallows_is_a_finding(self, tmp_path):
        report = run_flow(tmp_path, mutate({
            "pkg/boundary.py": (
                "def shield(fn):\n"
                "    try:\n"
                "        return fn()\n"
                "    except:\n"
                "        return None\n"
            ),
        }))
        assert rules_of(report) == {"swallowed-base-exception"}

    def test_cleanup_then_bare_reraise_is_allowed(self, tmp_path):
        # The checkpoint-writer idiom: catch everything, undo the
        # partial write, let the kill keep flying.
        report = run_flow(tmp_path, mutate({
            "pkg/boundary.py": (
                "def shield(fn):\n"
                "    try:\n"
                "        return fn()\n"
                "    except BaseException:\n"
                "        cleanup = None\n"
                "        raise\n"
            ),
        }))
        assert report.ok


# -- mutation 2: dropped cause chains -----------------------------------------


class TestDroppedCauseChain:
    def test_wrap_without_from_is_a_finding(self, tmp_path):
        report = run_flow(tmp_path, mutate({
            "pkg/translate.py": (
                "from pkg.errors import HardError\n"
                "def parse(text):\n"
                "    try:\n"
                "        return int(text)\n"
                "    except ValueError:\n"
                "        raise HardError('bad input')\n"
            ),
        }))
        assert rules_of(report) == {"dropped-cause-chain"}

    def test_bound_error_raised_from_none_is_a_finding(self, tmp_path):
        report = run_flow(tmp_path, mutate({
            "pkg/translate.py": (
                "from pkg.errors import HardError\n"
                "def parse(text):\n"
                "    try:\n"
                "        return int(text)\n"
                "    except ValueError as error:\n"
                "        raise HardError('bad input') from None\n"
            ),
        }))
        assert rules_of(report) == {"dropped-cause-chain"}
        (finding,) = report.findings
        assert "from error" in finding.message

    def test_explicit_from_error_is_allowed(self, tmp_path):
        report = run_flow(tmp_path, mutate({
            "pkg/translate.py": (
                "from pkg.errors import HardError\n"
                "def parse(text):\n"
                "    try:\n"
                "        return int(text)\n"
                "    except ValueError as error:\n"
                "        raise HardError('bad input') from error\n"
            ),
        }))
        assert report.ok

    def test_unbound_from_none_is_allowed(self, tmp_path):
        # Deliberate suppression without binding the error is explicit
        # intent (the KeyError-to-ConfigError registry idiom).
        report = run_flow(tmp_path, mutate({
            "pkg/translate.py": (
                "from pkg.errors import HardError\n"
                "def parse(table, key):\n"
                "    try:\n"
                "        return table[key]\n"
                "    except KeyError:\n"
                "        raise HardError('no such key') from None\n"
            ),
        }))
        assert report.ok


# -- mutation 3: retry hygiene ------------------------------------------------


class TestRetryHygiene:
    def test_retrying_a_non_transient_error_is_a_finding(self, tmp_path):
        report = run_flow(tmp_path, mutate({
            "pkg/retry.py": (
                "from pkg.core import save\n"
                "from pkg.errors import HardError\n"
                "def stubborn():\n"
                "    attempt = 0\n"
                "    while attempt < 5:\n"
                "        attempt += 1\n"
                "        try:\n"
                "            return save()\n"
                "        except HardError:\n"
                "            continue\n"
            ),
        }))
        assert rules_of(report) == {"non-transient-retry"}
        (finding,) = report.findings
        assert "HardError" in finding.message

    def test_retrying_a_transient_error_is_allowed(self, tmp_path):
        report = run_flow(tmp_path, mutate({
            "pkg/retry.py": (
                "from pkg.core import risky\n"
                "from pkg.errors import FlakyError\n"
                "def persistent():\n"
                "    attempt = 0\n"
                "    while attempt < 5:\n"
                "        attempt += 1\n"
                "        try:\n"
                "            return risky()\n"
                "        except FlakyError:\n"
                "            continue\n"
            ),
        }))
        assert report.ok

    def test_broad_catch_with_transiency_guard_is_allowed(self, tmp_path):
        # The run_guarded idiom: catch Exception, consult the policy.
        report = run_flow(tmp_path, mutate({
            "pkg/retry.py": (
                "from pkg.core import risky\n"
                "from pkg.errors import is_transient\n"
                "def guarded_retry():\n"
                "    while True:\n"
                "        try:\n"
                "            return risky()\n"
                "        except Exception as error:\n"
                "            if not is_transient(error):\n"
                "                raise\n"
                "            continue\n"
            ),
        }))
        assert report.ok

    def test_converting_to_a_transient_error_is_allowed(self, tmp_path):
        # The worker-pool idiom: a broken pool becomes a typed
        # transient error for the recovery machinery.
        report = run_flow(tmp_path, mutate({
            "pkg/retry.py": (
                "from pkg.core import risky\n"
                "from pkg.errors import FlakyError\n"
                "def recovering(recover):\n"
                "    while True:\n"
                "        try:\n"
                "            return risky()\n"
                "        except OSError:\n"
                "            recover(FlakyError('worker died'))\n"
                "            continue\n"
            ),
        }))
        assert report.ok

    def test_catch_in_a_for_loop_is_isolation_not_retry(self, tmp_path):
        # Per-item failure isolation iterates *distinct* work; it must
        # not be held to the transient-only retry rule.
        report = run_flow(tmp_path, mutate({
            "pkg/batch.py": (
                "from pkg.core import save\n"
                "from pkg.errors import HardError\n"
                "def run_all(items):\n"
                "    failures = []\n"
                "    for item in items:\n"
                "        try:\n"
                "            save()\n"
                "        except HardError as error:\n"
                "            failures.append((item, error))\n"
                "    return failures\n"
            ),
        }))
        assert report.ok


# -- mutation 4: fault-site wiring --------------------------------------------


class TestFaultSiteWiring:
    def test_orphan_declared_site_is_a_finding(self, tmp_path):
        files = dict(CLEAN_TREE)
        files["pkg/faults.py"] = CLEAN_TREE["pkg/faults.py"].replace(
            "SITE_WORK = 'replay.work'\n",
            "SITE_WORK = 'replay.work'\nSITE_LOAD = 'checkpoint.load'\n",
        )
        report = run_flow(tmp_path, files)
        assert rules_of(report) == {"orphan-fault-site"}
        (finding,) = report.findings
        assert "checkpoint.load" in finding.message

    def test_hook_naming_an_undeclared_site_is_a_finding(self, tmp_path):
        report = run_flow(tmp_path, mutate({
            "pkg/extra.py": (
                "from pkg import faults\n"
                "def shadow():\n"
                "    faults.fault_point('no.such.site')\n"
            ),
        }))
        assert rules_of(report) == {"unknown-fault-site"}

    def test_double_hooked_site_is_a_finding(self, tmp_path):
        report = run_flow(tmp_path, mutate({
            "pkg/extra.py": (
                "from pkg import faults\n"
                "def second_hook():\n"
                "    faults.fault_point(faults.SITE_WORK)\n"
            ),
        }))
        assert rules_of(report) == {"duplicate-fault-site"}
        (finding,) = report.findings
        assert finding.fingerprint == "duplicate-fault-site:replay.work"

    def test_missing_faults_module_skips_the_check(self, tmp_path):
        files = {
            rel: src for rel, src in CLEAN_TREE.items()
            if rel not in ("pkg/faults.py", "pkg/core.py")
        }
        files["pkg/core.py"] = (
            "from pkg.errors import FlakyError, HardError\n"
            "def risky():\n"
            "    raise FlakyError('flaky')\n"
            "def save():\n"
            "    raise HardError('hard')\n"
        )
        report = run_flow(tmp_path, files)
        assert report.ok


# -- mutation 5: CLI exit-code mapping ----------------------------------------


class TestCliExitCodes:
    def test_uncaught_escape_from_a_command_is_a_finding(self, tmp_path):
        files = dict(CLEAN_TREE)
        files["pkg/cli.py"] = CLEAN_TREE["pkg/cli.py"] + (
            "\n"
            "class StrayError(Exception):\n"
            "    pass\n"
            "\n"
            "def cmd_stray(args):\n"
            "    raise StrayError('unmapped')\n"
        )
        report = run_flow(tmp_path, files)
        assert rules_of(report) == {"unmapped-exit-code"}
        (finding,) = report.findings
        assert finding.fingerprint == (
            "unmapped-exit-code:cmd_stray:pkg.cli.StrayError"
        )

    def test_boundary_handler_with_magic_number_is_a_finding(self, tmp_path):
        files = dict(CLEAN_TREE)
        files["pkg/cli.py"] = CLEAN_TREE["pkg/cli.py"].replace(
            "        return EXIT_FATAL\n", "        return 9\n"
        )
        report = run_flow(tmp_path, files)
        assert "undocumented-exit-code" in rules_of(report)

    def test_missing_cli_module_skips_the_check(self, tmp_path):
        files = {
            rel: src for rel, src in CLEAN_TREE.items()
            if rel != "pkg/cli.py"
        }
        report = run_flow(tmp_path, files)
        assert report.ok


# -- mutation 6: worker pickle safety -----------------------------------------


class TestWorkerPickles:
    def test_lambda_submission_is_a_finding(self, tmp_path):
        report = run_flow(tmp_path, mutate({
            "pkg/pool.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def run_all(items):\n"
                "    with ProcessPoolExecutor() as executor:\n"
                "        futures = [\n"
                "            executor.submit(lambda: item * 2)\n"
                "            for item in items\n"
                "        ]\n"
                "    return [f.result() for f in futures]\n"
            ),
        }))
        assert rules_of(report) == {"unpicklable-worker-capture"}

    def test_nested_function_submission_is_a_finding(self, tmp_path):
        report = run_flow(tmp_path, mutate({
            "pkg/pool.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def run_all(items):\n"
                "    def work(x):\n"
                "        return x * 2\n"
                "    with ProcessPoolExecutor() as executor:\n"
                "        futures = [executor.submit(work, i) for i in items]\n"
                "    return [f.result() for f in futures]\n"
            ),
        }))
        assert rules_of(report) == {"unpicklable-worker-capture"}
        (finding,) = report.findings
        assert "closure" in finding.message

    def test_open_handle_argument_is_a_finding(self, tmp_path):
        report = run_flow(tmp_path, mutate({
            "pkg/pool.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def work(handle):\n"
                "    return handle\n"
                "def run_one(path):\n"
                "    log = open(path)\n"
                "    with ProcessPoolExecutor() as executor:\n"
                "        future = executor.submit(work, log)\n"
                "    return future.result()\n"
            ),
        }))
        assert rules_of(report) == {"unpicklable-worker-capture"}

    def test_module_level_callable_is_allowed(self, tmp_path):
        report = run_flow(tmp_path, mutate({
            "pkg/pool.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def work(x):\n"
                "    return x * 2\n"
                "def run_all(items):\n"
                "    with ProcessPoolExecutor() as executor:\n"
                "        futures = [executor.submit(work, i) for i in items]\n"
                "    return [f.result() for f in futures]\n"
            ),
        }))
        assert report.ok


# -- baseline ratchet ---------------------------------------------------------


class TestFaultcheckBaseline:
    VIOLATION = {
        "pkg/boundary.py": (
            "from pkg import faults\n"
            "def shield(fn):\n"
            "    try:\n"
            "        return fn()\n"
            "    except faults.InjectedKill:\n"
            "        return None\n"
        ),
    }

    def test_justified_entry_waives_the_finding(self, tmp_path):
        baseline = Baseline(path=tmp_path / "baseline.json", gates={
            "faultcheck": {
                "swallowed-base-exception:pkg.boundary.shield:"
                "pkg.faults.InjectedKill": "sanctioned kill boundary",
            },
        })
        report = run_flow(tmp_path, mutate(self.VIOLATION),
                          baseline=baseline)
        assert report.ok
        assert len(report.baselined) == 1

    def test_update_baseline_writes_gating_todo_entries(self, tmp_path):
        baseline = Baseline(path=tmp_path / "baseline.json")
        report = run_flow(tmp_path, mutate(self.VIOLATION),
                          baseline=baseline, update_baseline=True)
        written = json.loads((tmp_path / "baseline.json").read_text())
        (entry,) = written["gates"]["faultcheck"]
        assert entry["justification"] == TODO_JUSTIFICATION
        # The TODO stub itself gates: the run is still not ok.
        assert not report.ok
        assert any(f.rule == "unjustified-baseline"
                   for f in report.findings)

    def test_fixed_violation_surfaces_a_stale_entry(self, tmp_path):
        baseline = Baseline(path=tmp_path / "baseline.json", gates={
            "faultcheck": {
                "swallowed-base-exception:pkg.gone.shield:"
                "pkg.faults.InjectedKill": "was justified once",
            },
        })
        report = run_flow(tmp_path, CLEAN_TREE, baseline=baseline)
        assert report.ok
        assert report.stale == [
            "swallowed-base-exception:pkg.gone.shield:"
            "pkg.faults.InjectedKill"
        ]


# -- the repository gates on itself -------------------------------------------


class TestRepoTip:
    def test_repo_tip_is_clean_under_its_baseline(self):
        baseline = Baseline.load(REPO_ROOT / "check-baseline.json")
        (report,) = run_gates(
            ["faultcheck"], GateOptions(src=str(REPO_ROOT / "src")), baseline
        )
        assert report.ok, [f.fingerprint for f in report.findings]
        assert not report.stale, report.stale

    def test_repo_baseline_entries_are_justified(self):
        baseline = Baseline.load(REPO_ROOT / "check-baseline.json")
        assert baseline.gates["faultcheck"], "expected the known waivers"
        assert not baseline.unjustified("faultcheck")


# -- CLI ----------------------------------------------------------------------


class TestFaultcheckCli:
    def test_findings_gate_with_exit_1_and_json(self, tmp_path, capsys):
        src = write_tree(tmp_path / "src", mutate({
            "pkg/boundary.py": (
                "def shield(fn):\n"
                "    try:\n"
                "        return fn()\n"
                "    except BaseException:\n"
                "        return None\n"
            ),
        }))
        code = main([
            "check", "--only", "faultcheck", "--src", str(src),
            "--package", "pkg",
            "--baseline", str(tmp_path / "baseline.json"),
            "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)["gates"]["faultcheck"]
        assert code == 1
        assert payload["tool"] == "faultcheck"
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "swallowed-base-exception"

    def test_clean_tree_exits_0_and_writes_report(self, tmp_path, capsys):
        src = write_tree(tmp_path / "src", CLEAN_TREE)
        report_path = tmp_path / "check-report.json"
        code = main([
            "check", "--only", "faultcheck", "--src", str(src),
            "--package", "pkg",
            "--baseline", str(tmp_path / "baseline.json"),
            "--report", str(report_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "faultcheck: no findings" in out
        payload = json.loads(report_path.read_text())["gates"]["faultcheck"]
        assert payload["count"] == 0
        assert payload["stats"]["modules"] == len(CLEAN_TREE)

    def test_update_baseline_flag_writes_the_file(self, tmp_path, capsys):
        src = write_tree(tmp_path / "src", mutate({
            "pkg/boundary.py": (
                "def shield(fn):\n"
                "    try:\n"
                "        return fn()\n"
                "    except BaseException:\n"
                "        return None\n"
            ),
        }))
        baseline_path = tmp_path / "baseline.json"
        code = main([
            "check", "--only", "faultcheck", "--src", str(src),
            "--package", "pkg",
            "--baseline", str(baseline_path), "--update-baseline",
        ])
        assert code == 1  # TODO stubs still gate
        written = json.loads(baseline_path.read_text())
        (entry,) = written["gates"]["faultcheck"]
        assert entry["justification"] == TODO_JUSTIFICATION

    def test_check_umbrella_passes_on_repo_tip(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        code = main(["check"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "== lint ==" in out
        assert "== archcheck ==" in out
        assert "== faultcheck ==" in out
        assert "== perfcheck ==" in out
        assert "4/4 gates clean" in out

    def test_check_umbrella_gates_on_any_failing_gate(self, tmp_path,
                                                      monkeypatch, capsys):
        # A fixture repo whose faultcheck fails but whose lint,
        # archcheck and perfcheck pass: the umbrella must still exit 1.
        src = write_tree(tmp_path / "src", mutate({
            "pkg/boundary.py": (
                "def shield(fn):\n"
                "    try:\n"
                "        return fn()\n"
                "    except BaseException:\n"
                "        return None\n"
            ),
        }))
        (tmp_path / "archcontract.toml").write_text(
            "[project]\npackage = \"pkg\"\n"
            "[layers]\nall = []\n"
            "[modules]\npkg = \"all\"\n"
            + "".join(
                f'"pkg.{mod}" = "all"\n'
                for mod in ("boundary", "cli", "core", "errors", "faults")
            )
            + "[deadcode]\nignore = [\"*\"]\n",
            encoding="utf-8",
        )
        (tmp_path / "perfcontract.toml").write_text(
            "[project]\npackage = \"pkg\"\n"
            "[[entry]]\nfunction = \"pkg.core.risky\"\n"
            "max_loop_depth = 0\n",
            encoding="utf-8",
        )
        monkeypatch.chdir(tmp_path)
        code = main([
            "check", "--src", str(src), "--package", "pkg",
            "--baseline", str(tmp_path / "check-baseline.json"),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "swallowed-base-exception" in out
        assert "faultcheck: exit 1 (findings)" in out
        assert "perfcheck: exit 0 (clean)" in out
        assert "3/4 gates clean" in out

    def test_check_umbrella_reports_a_broken_gate_as_fatal(
        self, tmp_path, monkeypatch, capsys
    ):
        # A missing perf contract fails its own gate with exit 2 but
        # must not take down the other three analyzers.
        src = write_tree(tmp_path / "src", dict(CLEAN_TREE))
        (tmp_path / "archcontract.toml").write_text(
            "[project]\npackage = \"pkg\"\n"
            "[layers]\nall = []\n"
            "[modules]\npkg = \"all\"\n"
            + "".join(
                f'"pkg.{mod}" = "all"\n'
                for mod in ("cli", "core", "errors", "faults")
            )
            + "[deadcode]\nignore = [\"*\"]\n",
            encoding="utf-8",
        )
        monkeypatch.chdir(tmp_path)
        code = main([
            "check", "--src", str(src), "--package", "pkg",
            "--baseline", str(tmp_path / "check-baseline.json"),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "perfcheck: exit 2 (fatal)" in out
        assert "no performance contract" in out
        assert "3/4 gates clean" in out
