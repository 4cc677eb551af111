"""The ``perfcheck`` hot-path pass: scanner, hot region, five checks."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.analysis.arch import Baseline, CallGraph, ModuleGraph
from repro.analysis.arch.baseline import TODO_JUSTIFICATION
from repro.analysis.gates import GateOptions, run_gates
from repro.analysis.perf import (
    PerfContract,
    check_profile,
    compute_hot_region,
    hot_region_to_dot,
    scan_function,
)
from repro.cli import main
from repro.errors import ConfigError

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Contract pointing the analyzer at the synthetic ``pkg`` package.
CONTRACT_TOML = (
    '[project]\n'
    'package = "pkg"\n'
    '\n'
    '[[entry]]\n'
    'function = "pkg.fast.replay"\n'
    'signature = "stream, lut, cache"\n'
    'max_loop_depth = 2\n'
    '\n'
    '[purity]\n'
    'entrypoints = ["pkg.fast.replay"]\n'
    'forbidden = ["pkg.ref.ReferenceCache"]\n'
)

#: A small program that passes every perfcheck rule.  Each mutation
#: fixture below perturbs exactly one property of it.
CLEAN_TREE = {
    "pkg/__init__.py": "",
    "pkg/fast.py": (
        "def replay(stream, lut, cache):\n"
        "    total = 0\n"
        "    access = cache.access\n"
        "    for quad in stream:\n"
        "        for line in quad:\n"
        "            total += access(lut[line])\n"
        "    return total\n"
    ),
    "pkg/ref.py": (
        "class ReferenceCache:\n"
        "    def __init__(self):\n"
        "        self.hits = 0\n"
        "\n"
        "    def access(self, line):\n"
        "        self.hits += 1\n"
        "        return self.hits\n"
    ),
}


def write_tree(root: Path, files: dict) -> Path:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


def run_perf(tmp_path: Path, files: dict, baseline=None,
             update_baseline: bool = False):
    src, contract = write_fixture(tmp_path, files)
    if baseline is None:
        baseline = Baseline(path=tmp_path / "baseline.json")
    (report,) = run_gates(
        ["perfcheck"],
        GateOptions(src=str(src), perf_contract=str(contract)),
        baseline, update_baseline=update_baseline,
    )
    return report


def mutate(extra: dict) -> dict:
    files = dict(CLEAN_TREE)
    files.update(extra)
    return files


def rules_of(report) -> set:
    return {finding.rule for finding in report.findings}


def scan_source(source: str):
    """Scan the first function of a source snippet."""
    return scan_function(ast.parse(source).body[0])


# -- the scanner --------------------------------------------------------------


class TestScanner:
    def test_constant_tuple_in_loop_is_exempt(self):
        scan = scan_source(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        t = (0, 1)\n"
        )
        assert scan.allocations == []

    def test_unpack_assign_tuple_is_exempt(self):
        scan = scan_source(
            "def f(xs, y):\n"
            "    for x in xs:\n"
            "        a, b = x, y\n"
        )
        assert scan.allocations == []

    def test_numpy_index_tuple_is_exempt(self):
        scan = scan_source(
            "def f(xs, u):\n"
            "    for x in xs:\n"
            "        v = u[x, 0]\n"
        )
        assert scan.allocations == []

    def test_statement_level_comprehension_is_blessed(self):
        # The fix for an allocating loop IS a comprehension; the tuples
        # it builds per element are the bulk construction, not a leak.
        scan = scan_source(
            "def f(xs):\n"
            "    rows = [(x, x + 1) for x in xs]\n"
            "    return rows\n"
        )
        assert scan.allocations == []

    def test_comprehension_inside_a_loop_is_one_finding(self):
        scan = scan_source(
            "def f(qs):\n"
            "    for q in qs:\n"
            "        rows = [x for x in q]\n"
        )
        assert [s.kind for s in scan.allocations] == ["comprehension"]

    def test_fstring_in_loop_allocates(self):
        scan = scan_source(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        s = f'{x}'\n"
        )
        assert [s.kind for s in scan.allocations] == ["fstring"]

    def test_closure_in_loop_allocates(self):
        scan = scan_source(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        fn = lambda v: v + x\n"
        )
        assert [s.kind for s in scan.allocations] == ["closure"]

    def test_raise_is_not_double_flagged_for_its_fstring(self):
        scan = scan_source(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        if x < 0:\n"
            "            raise ValueError(f'bad {x}')\n"
        )
        assert [s.kind for s in scan.fault_paths] == ["raise"]
        assert scan.allocations == []

    def test_rebound_chain_root_is_not_a_finding(self):
        scan = scan_source(
            "def f(xs, make):\n"
            "    for x in xs:\n"
            "        obj = make(x)\n"
            "        v = obj.a.b\n"
        )
        assert scan.chains == []

    def test_loop_invariant_chain_is_a_finding(self):
        scan = scan_source(
            "def f(xs, cache):\n"
            "    for x in xs:\n"
            "        v = cache.stats.hits\n"
        )
        assert [s.detail for s in scan.chains] == ["cache.stats.hits"]

    def test_while_loops_count_toward_depth(self):
        scan = scan_source(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        while x > 0:\n"
            "            x -= 1\n"
        )
        assert scan.max_loop_depth == 2

    def test_print_in_loop_is_a_fault_path(self):
        scan = scan_source(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        print(x)\n"
        )
        assert [s.kind for s in scan.fault_paths] == ["print"]


# -- the hot region -----------------------------------------------------------


class TestHotRegion:
    IMPURE_FAST = {
        "pkg/fast.py": (
            "from pkg.ref import ReferenceCache\n"
            "\n"
            "def replay(stream, lut, cache):\n"
            "    ref = ReferenceCache()\n"
            "    total = 0\n"
            "    for quad in stream:\n"
            "        for line in quad:\n"
            "            total += lut[line]\n"
            "    return total\n"
        ),
    }

    def build(self, tmp_path, files):
        src = write_tree(tmp_path / "src", files)
        graph = ModuleGraph.build(src, packages=["pkg"])
        return CallGraph(graph)

    def test_region_follows_resolved_constructor_edges(self, tmp_path):
        callgraph = self.build(tmp_path, mutate(self.IMPURE_FAST))
        region = compute_hot_region(callgraph, ["pkg.fast.replay"])
        assert "pkg.ref.ReferenceCache.__init__" in region
        assert region.chain_of("pkg.ref.ReferenceCache.__init__") == [
            "pkg.fast.replay", "pkg.ref.ReferenceCache.__init__",
        ]

    def test_exclusion_prunes_the_subtree(self, tmp_path):
        callgraph = self.build(tmp_path, mutate(self.IMPURE_FAST))
        region = compute_hot_region(
            callgraph, ["pkg.fast.replay"],
            exclude=["pkg.ref.ReferenceCache.__init__"],
        )
        assert "pkg.ref.ReferenceCache.__init__" not in region
        assert region.excluded == ["pkg.ref.ReferenceCache.__init__"]

    def test_missing_entry_point_is_recorded(self, tmp_path):
        callgraph = self.build(tmp_path, CLEAN_TREE)
        region = compute_hot_region(callgraph, ["pkg.fast.gone"])
        assert region.missing == ["pkg.fast.gone"]
        assert region.members() == []

    def test_dot_export_names_the_entry_point(self, tmp_path):
        callgraph = self.build(tmp_path, mutate(self.IMPURE_FAST))
        region = compute_hot_region(callgraph, ["pkg.fast.replay"])
        dot = hot_region_to_dot(callgraph, region, package="pkg")
        assert dot.startswith("digraph")
        assert "fast.replay" in dot
        assert "ref.ReferenceCache.__init__" in dot


# -- the contract -------------------------------------------------------------


class TestContract:
    def test_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="no performance contract"):
            PerfContract.load(tmp_path / "perfcontract.toml")

    def test_missing_package_raises(self):
        with pytest.raises(ConfigError, match=r"\[project\] package"):
            PerfContract.from_dict({"entry": [{"function": "pkg.f"}]})

    def test_missing_entries_raises(self):
        with pytest.raises(ConfigError, match=r"\[\[entry\]\]"):
            PerfContract.from_dict({"project": {"package": "pkg"}})

    def test_negative_loop_depth_raises(self):
        with pytest.raises(ConfigError, match="max_loop_depth"):
            PerfContract.from_dict({
                "project": {"package": "pkg"},
                "entry": [{"function": "pkg.f", "max_loop_depth": -1}],
            })

    def test_round_trip_through_toml(self, tmp_path):
        path = tmp_path / "perfcontract.toml"
        path.write_text(CONTRACT_TOML, encoding="utf-8")
        contract = PerfContract.load(path)
        assert contract.package == "pkg"
        assert contract.entries[0].function == "pkg.fast.replay"
        assert contract.entries[0].max_loop_depth == 2
        assert contract.purity_forbidden == ["pkg.ref.ReferenceCache"]


# -- seeded mutation classes --------------------------------------------------


class TestMutations:
    def test_clean_tree_is_clean(self, tmp_path):
        report = run_perf(tmp_path, CLEAN_TREE)
        assert report.ok, [f.fingerprint for f in report.findings]
        assert "pkg.fast.replay" in report.run.details["hot_region"]

    def test_hot_loop_allocation(self, tmp_path):
        report = run_perf(tmp_path, mutate({
            "pkg/fast.py": (
                "def replay(stream, lut, cache):\n"
                "    total = 0\n"
                "    access = cache.access\n"
                "    for quad in stream:\n"
                "        missed = []\n"
                "        for line in quad:\n"
                "            total += access(lut[line])\n"
                "    return total\n"
            ),
        }))
        (finding,) = report.findings
        assert finding.rule == "hot-loop-allocation"
        assert finding.fingerprint == (
            "hot-loop-allocation:pkg.fast.replay:list-literal"
        )
        assert "pkg.fast.replay" in finding.message

    def test_same_kind_sites_aggregate_to_one_finding(self, tmp_path):
        report = run_perf(tmp_path, mutate({
            "pkg/fast.py": (
                "def replay(stream, lut, cache):\n"
                "    total = 0\n"
                "    for quad in stream:\n"
                "        missed = []\n"
                "        seen = []\n"
                "        for line in quad:\n"
                "            total += lut[line]\n"
                "    return total\n"
            ),
        }))
        (finding,) = report.findings
        assert finding.rule == "hot-loop-allocation"
        assert "(2 sites)" in finding.message

    def test_unhoisted_attribute_chain(self, tmp_path):
        report = run_perf(tmp_path, mutate({
            "pkg/fast.py": (
                "def replay(stream, lut, cache):\n"
                "    total = 0\n"
                "    for quad in stream:\n"
                "        for line in quad:\n"
                "            total += lut[line] + cache.stats.hits\n"
                "    return total\n"
            ),
        }))
        (finding,) = report.findings
        assert finding.rule == "unhoisted-attribute-chain"
        assert finding.fingerprint == (
            "unhoisted-attribute-chain:pkg.fast.replay:cache.stats.hits"
        )

    def test_fast_engine_reaching_reference_is_impure(self, tmp_path):
        report = run_perf(tmp_path, mutate(TestHotRegion.IMPURE_FAST))
        (finding,) = report.findings
        assert finding.rule == "engine-purity"
        assert finding.fingerprint == (
            "engine-purity:pkg.fast.replay:"
            "pkg.ref.ReferenceCache.__init__"
        )
        assert "pkg.fast.replay -> pkg.ref.ReferenceCache.__init__" \
            in finding.message

    def test_try_block_in_the_inner_loop(self, tmp_path):
        report = run_perf(tmp_path, mutate({
            "pkg/fast.py": (
                "def replay(stream, lut, cache):\n"
                "    total = 0\n"
                "    access = cache.access\n"
                "    for quad in stream:\n"
                "        for line in quad:\n"
                "            try:\n"
                "                total += access(lut[line])\n"
                "            except KeyError:\n"
                "                continue\n"
                "    return total\n"
            ),
        }))
        (finding,) = report.findings
        assert finding.rule == "hot-loop-fault-path"
        assert finding.fingerprint == (
            "hot-loop-fault-path:pkg.fast.replay:try"
        )

    def test_extra_nesting_level_breaks_the_depth_bound(self, tmp_path):
        report = run_perf(tmp_path, mutate({
            "pkg/fast.py": (
                "def replay(stream, lut, cache):\n"
                "    total = 0\n"
                "    access = cache.access\n"
                "    for quad in stream:\n"
                "        for line in quad:\n"
                "            for bank in line:\n"
                "                total += access(lut[bank])\n"
                "    return total\n"
            ),
        }))
        (finding,) = report.findings
        assert finding.rule == "loop-depth"
        assert finding.fingerprint == "loop-depth:pkg.fast.replay"
        assert "nests loops 3 deep" in finding.message

    def test_signature_drift_is_a_finding(self, tmp_path):
        report = run_perf(tmp_path, mutate({
            "pkg/fast.py": (
                "def replay(stream, lut, cache, budget):\n"
                "    total = 0\n"
                "    access = cache.access\n"
                "    for quad in stream:\n"
                "        for line in quad:\n"
                "            total += access(lut[line])\n"
                "    return total\n"
            ),
        }))
        (finding,) = report.findings
        assert finding.rule == "entrypoint-drift"
        assert "(stream, lut, cache, budget)" in finding.message

    def test_deleted_entry_point_is_a_finding(self, tmp_path):
        report = run_perf(tmp_path, mutate({
            "pkg/fast.py": (
                "def replay_quads(stream, lut, cache):\n"
                "    return 0\n"
            ),
        }))
        (finding,) = report.findings
        assert finding.rule == "missing-entrypoint"
        assert finding.fingerprint == "missing-entrypoint:pkg.fast.replay"

    def test_cold_code_may_allocate_freely(self, tmp_path):
        # Hot-loop rules stop at the hot region's edge: a reporting
        # module full of loops and f-strings is not perfcheck's business.
        report = run_perf(tmp_path, mutate({
            "pkg/report.py": (
                "def table(rows):\n"
                "    out = []\n"
                "    for row in rows:\n"
                "        cells = [f'{c}' for c in row]\n"
                "        out.append({'cells': cells})\n"
                "    return out\n"
            ),
        }))
        assert report.ok, [f.fingerprint for f in report.findings]


# -- the benchmark-profile cross-check ----------------------------------------


class TestProfile:
    CONTRACT = {
        "project": {"package": "pkg"},
        "entry": [{"function": "pkg.fast.replay", "max_loop_depth": 2}],
        "profile": {
            "required_sections": ["engines.fast.quads_per_s"],
            "min_speedup": 2.0,
        },
    }

    def contract(self):
        return PerfContract.from_dict(self.CONTRACT)

    def test_complete_profile_is_clean(self):
        findings = check_profile(self.contract(), {
            "engines": {"fast": {"quads_per_s": 913000.0}},
            "fast_vs_reference_speedup": 3.59,
        }, "BENCH.json")
        assert findings == []

    def test_missing_section_is_drift(self):
        (finding,) = check_profile(self.contract(), {
            "engines": {"reference": {}},
            "fast_vs_reference_speedup": 3.59,
        }, "BENCH.json")
        assert finding.rule == "profile-drift"
        assert finding.fingerprint == (
            "profile-drift:engines.fast.quads_per_s"
        )

    def test_speedup_below_floor_is_a_regression(self):
        (finding,) = check_profile(self.contract(), {
            "engines": {"fast": {"quads_per_s": 913000.0}},
            "fast_vs_reference_speedup": 1.4,
        }, "BENCH.json")
        assert finding.rule == "profile-regression"
        assert "1.40x" in finding.message


# -- baseline ratchet ---------------------------------------------------------


class TestPerfcheckBaseline:
    VIOLATION = {
        "pkg/fast.py": (
            "def replay(stream, lut, cache):\n"
            "    total = 0\n"
            "    for quad in stream:\n"
            "        missed = []\n"
            "        for line in quad:\n"
            "            total += lut[line]\n"
            "    return total\n"
        ),
    }
    FINGERPRINT = "hot-loop-allocation:pkg.fast.replay:list-literal"

    def test_justified_entry_waives_the_finding(self, tmp_path):
        baseline = Baseline(path=tmp_path / "baseline.json", gates={
            "perfcheck": {
                self.FINGERPRINT: "per-tile scratch, measured negligible",
            },
        })
        report = run_perf(tmp_path, mutate(self.VIOLATION),
                          baseline=baseline)
        assert report.ok
        assert len(report.baselined) == 1

    def test_update_baseline_writes_gating_todo_entries(self, tmp_path):
        baseline = Baseline(path=tmp_path / "baseline.json")
        report = run_perf(tmp_path, mutate(self.VIOLATION),
                          baseline=baseline, update_baseline=True)
        written = json.loads((tmp_path / "baseline.json").read_text())
        (entry,) = written["gates"]["perfcheck"]
        assert entry["justification"] == TODO_JUSTIFICATION
        # The TODO stub itself gates: the run is still not ok.
        assert not report.ok
        assert any(f.rule == "unjustified-baseline"
                   for f in report.findings)

    def test_fixed_violation_surfaces_a_stale_entry(self, tmp_path):
        baseline = Baseline(path=tmp_path / "baseline.json", gates={
            "perfcheck": {self.FINGERPRINT: "was justified once"},
        })
        report = run_perf(tmp_path, CLEAN_TREE, baseline=baseline)
        assert report.ok
        assert report.stale == [self.FINGERPRINT]


# -- the repository gates on itself -------------------------------------------


class TestRepoTip:
    def test_repo_tip_is_clean_under_its_baseline(self):
        contract = REPO_ROOT / "perfcontract.toml"
        baseline = Baseline.load(REPO_ROOT / "check-baseline.json")
        (report,) = run_gates(["perfcheck"], GateOptions(
            src=str(REPO_ROOT / "src"), perf_contract=str(contract),
            profile_json=str(REPO_ROOT / "BENCH_replay.json"),
        ), baseline)
        assert report.ok, [f.fingerprint for f in report.findings]
        assert not report.stale, report.stale
        # every declared hot entry point resolves (none missing)
        entries = PerfContract.load(contract).entries
        assert entries, "expected declared hot entry points"
        assert report.stats()["entrypoints"] == len(entries)

    def test_repo_baseline_is_small_and_justified(self):
        baseline = Baseline.load(REPO_ROOT / "check-baseline.json")
        entries = baseline.gates["perfcheck"]
        assert entries, "expected the known waived findings"
        assert len(entries) <= 2, sorted(entries)
        assert not baseline.unjustified("perfcheck")

    def test_repo_waivers_cite_benchmark_evidence(self):
        # Perf waivers must point at a number, not an opinion (see
        # docs/WAIVERS.md): every entry names the benchmark file.
        baseline = Baseline.load(REPO_ROOT / "check-baseline.json")
        for fingerprint, justification in baseline.gates["perfcheck"].items():
            assert "BENCH_replay.json" in justification, fingerprint


# -- CLI ----------------------------------------------------------------------


def write_fixture(tmp_path: Path, files: dict) -> tuple:
    src = write_tree(tmp_path / "src", files)
    contract = tmp_path / "perfcontract.toml"
    contract.write_text(CONTRACT_TOML, encoding="utf-8")
    return src, contract


class TestPerfcheckCli:
    def test_findings_gate_with_exit_1_and_json(self, tmp_path, capsys):
        src, contract = write_fixture(tmp_path, mutate(
            TestPerfcheckBaseline.VIOLATION
        ))
        code = main([
            "check", "--only", "perfcheck", "--src", str(src),
            "--perf-contract", str(contract),
            "--baseline", str(tmp_path / "baseline.json"),
            "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)["gates"]["perfcheck"]
        assert code == 1
        assert payload["tool"] == "perfcheck"
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "hot-loop-allocation"
        assert "pkg.fast.replay" in payload["hot_region"]

    def test_clean_tree_exits_0_and_writes_artifacts(self, tmp_path,
                                                     capsys):
        src, contract = write_fixture(tmp_path, CLEAN_TREE)
        report_path = tmp_path / "check-report.json"
        graphs = tmp_path / "graphs"
        code = main([
            "check", "--only", "perfcheck", "--src", str(src),
            "--perf-contract", str(contract),
            "--baseline", str(tmp_path / "baseline.json"),
            "--report", str(report_path), "--graphs", str(graphs),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "perfcheck: no findings" in out
        assert "hot region: 1 functions reachable from 1 entry points" \
            in out
        payload = json.loads(report_path.read_text())["gates"]["perfcheck"]
        assert payload["count"] == 0
        assert payload["stats"]["hot_functions"] == 1
        assert (graphs / "hotregion.dot").read_text().startswith("digraph")

    def test_profile_json_cross_check_gates(self, tmp_path, capsys):
        src, contract = write_fixture(tmp_path, CLEAN_TREE)
        contract.write_text(
            CONTRACT_TOML
            + '\n[profile]\n'
              'required_sections = ["engines.fast.quads_per_s"]\n'
              'min_speedup = 2.0\n',
            encoding="utf-8",
        )
        profile = tmp_path / "BENCH.json"
        profile.write_text(json.dumps({
            "engines": {"reference": {"quads_per_s": 1.0}},
            "fast_vs_reference_speedup": 1.2,
        }), encoding="utf-8")
        code = main([
            "check", "--only", "perfcheck", "--src", str(src),
            "--perf-contract", str(contract),
            "--baseline", str(tmp_path / "baseline.json"),
            "--profile-json", str(profile), "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)["gates"]["perfcheck"]
        assert code == 1
        assert {f["rule"] for f in payload["findings"]} == {
            "profile-drift", "profile-regression",
        }

    def test_update_baseline_flag_writes_the_file(self, tmp_path, capsys):
        src, contract = write_fixture(tmp_path, mutate(
            TestPerfcheckBaseline.VIOLATION
        ))
        baseline_path = tmp_path / "baseline.json"
        code = main([
            "check", "--only", "perfcheck", "--src", str(src),
            "--perf-contract", str(contract),
            "--baseline", str(baseline_path), "--update-baseline",
        ])
        assert code == 1  # TODO stubs still gate
        written = json.loads(baseline_path.read_text())
        (entry,) = written["gates"]["perfcheck"]
        assert entry["justification"] == TODO_JUSTIFICATION
