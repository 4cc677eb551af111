"""The ``archcheck`` whole-program pass: graph, contracts, ratchet, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.arch import (
    Baseline,
    CallGraph,
    LayerContract,
    ModuleGraph,
    TODO_JUSTIFICATION,
    check_dead_exports,
    check_timing_critical_mutations,
    check_undeclared_exports,
    graph_to_dict,
    to_dot,
)
from repro.analysis.checks_common import Finding
from repro.analysis.gates import GateOptions, run_gates
from repro.cli import main
from repro.errors import ConfigError

REPO_ROOT = Path(__file__).resolve().parents[1]

#: A three-layer synthetic contract used by most fixtures.
CONTRACT_DICT = {
    "project": {"package": "pkg"},
    "layers": {
        "low": [],
        "mid": ["low"],
        "high": ["mid", "low"],
    },
    "modules": {"pkg": "high"},
    # fixture functions are unreferenced by construction; dead-export
    # behaviour gets its own direct tests below
    "deadcode": {"ignore": ["*"]},
}


def write_tree(root: Path, files: dict) -> Path:
    """Materialize ``{relative path: source}`` under ``root``; mkdir -p."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


def make_graph(tmp_path: Path, files: dict) -> ModuleGraph:
    src = write_tree(tmp_path / "src", files)
    return ModuleGraph.build(src, packages=["pkg"])


def contract_dict(**overrides) -> dict:
    raw = {key: dict(value) for key, value in CONTRACT_DICT.items()}
    raw.update(overrides)
    return raw


def contract(**overrides) -> LayerContract:
    return LayerContract.from_dict(contract_dict(**overrides))


def write_contract(path: Path, raw: dict) -> Path:
    """``raw`` as TOML: JSON strings and string lists are TOML values."""
    path.write_text("".join(
        f"[{table}]\n" + "".join(
            f"{json.dumps(key)} = {json.dumps(value)}\n"
            for key, value in values.items()
        )
        for table, values in raw.items()
    ), encoding="utf-8")
    return path


def run_check(tmp_path: Path, files: dict, the_contract=None,
              baseline=None, update_baseline=False):
    src = write_tree(tmp_path / "src", files)
    contract_path = write_contract(
        tmp_path / "archcontract.toml",
        the_contract if the_contract is not None else contract_dict(),
    )
    if baseline is None:
        baseline = Baseline(path=tmp_path / "baseline.json")
    (report,) = run_gates(
        ["archcheck"],
        GateOptions(src=str(src), contract=str(contract_path)),
        baseline, update_baseline=update_baseline,
    )
    return report


#: A minimal clean three-layer tree.
CLEAN_TREE = {
    "pkg/__init__.py": "",
    "pkg/low/__init__.py": "",
    "pkg/low/base.py": "def helper():\n    return 1\n",
    "pkg/mid/__init__.py": "",
    "pkg/mid/work.py": (
        "from pkg.low.base import helper\n"
        "def work():\n"
        "    return helper()\n"
    ),
    "pkg/high/__init__.py": "",
    "pkg/high/top.py": (
        "from pkg.mid.work import work\n"
        "def top():\n"
        "    return work()\n"
    ),
}


# -- module graph -------------------------------------------------------------


class TestModuleGraph:
    def test_builds_modules_and_edges(self, tmp_path):
        graph = make_graph(tmp_path, CLEAN_TREE)
        assert set(graph.modules) == {
            "pkg", "pkg.low", "pkg.low.base", "pkg.mid", "pkg.mid.work",
            "pkg.high", "pkg.high.top",
        }
        pairs = {(e.src, e.dst) for e in graph.edges}
        assert ("pkg.mid.work", "pkg.low.base") in pairs
        assert ("pkg.high.top", "pkg.mid.work") in pairs

    def test_from_import_of_attribute_collapses_to_module(self, tmp_path):
        # `from pkg.low.base import helper` is an edge to the module,
        # not to a phantom module `pkg.low.base.helper`.
        graph = make_graph(tmp_path, CLEAN_TREE)
        assert all("helper" not in e.dst for e in graph.edges)

    def test_relative_imports_resolved(self, tmp_path):
        graph = make_graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/low/__init__.py": "",
            "pkg/low/a.py": "A = 1\n",
            "pkg/low/b.py": "from .a import A\nfrom . import a\n",
            "pkg/mid/__init__.py": "",
            "pkg/mid/c.py": "from ..low.a import A\n",
        })
        pairs = {(e.src, e.dst) for e in graph.edges}
        assert ("pkg.low.b", "pkg.low.a") in pairs
        assert ("pkg.mid.c", "pkg.low.a") in pairs

    def test_external_imports_are_not_edges(self, tmp_path):
        graph = make_graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/low/__init__.py": "",
            "pkg/low/a.py": "import os\nimport json as j\nX = 1\n",
        })
        assert graph.edges == []

    def test_parse_error_is_a_finding_not_a_crash(self, tmp_path):
        graph = make_graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/low/__init__.py": "",
            "pkg/low/bad.py": "def broken(:\n",
        })
        assert [f.rule for f in graph.errors] == ["parse-error"]
        assert "pkg.low.bad" not in graph.modules

    def test_cycles_detected_and_deterministic(self, tmp_path):
        graph = make_graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/low/__init__.py": "",
            "pkg/low/a.py": "import pkg.low.b\n",
            "pkg/low/b.py": "import pkg.low.a\n",
            "pkg/low/c.py": "import pkg.low.a\n",
        })
        assert graph.cycles() == [["pkg.low.a", "pkg.low.b"]]


# -- layer contracts ----------------------------------------------------------


class TestLayerContract:
    def test_clean_tree_has_no_findings(self, tmp_path):
        report = run_check(tmp_path, CLEAN_TREE)
        assert report.findings == []
        assert report.ok

    def test_forbidden_edge_is_a_finding(self, tmp_path):
        files = dict(CLEAN_TREE)
        files["pkg/low/base.py"] = (
            "from pkg.high.top import top\n"
            "def helper():\n"
            "    return top()\n"
        )
        report = run_check(tmp_path, files)
        rules = [f.rule for f in report.findings]
        assert "forbidden-import" in rules
        finding = next(
            f for f in report.findings if f.rule == "forbidden-import"
        )
        assert finding.fingerprint == (
            "forbidden-import:pkg.low.base->pkg.high.top"
        )
        assert "layer low" in finding.message

    def test_import_cycle_is_a_finding(self, tmp_path):
        files = dict(CLEAN_TREE)
        files["pkg/mid/other.py"] = "from pkg.mid import work\n"
        files["pkg/mid/work.py"] = (
            "from pkg.mid import other\n"
            "def work():\n"
            "    return other\n"
        )
        report = run_check(tmp_path, files)
        cycles = [f for f in report.findings if f.rule == "import-cycle"]
        assert len(cycles) == 1
        assert cycles[0].fingerprint == (
            "import-cycle:pkg.mid.other+pkg.mid.work"
        )

    def test_unmapped_module_is_a_finding(self, tmp_path):
        files = dict(CLEAN_TREE)
        files["pkg/rogue/__init__.py"] = ""
        files["pkg/rogue/x.py"] = "X = 1\n"
        report = run_check(tmp_path, files)
        assert {
            f.fingerprint for f in report.findings
            if f.rule == "unmapped-module"
        } == {"unmapped-module:pkg.rogue", "unmapped-module:pkg.rogue.x"}

    def test_module_override_maps_top_level_files(self, tmp_path):
        files = dict(CLEAN_TREE)
        files["pkg/util.py"] = "U = 1\n"
        mapped = contract_dict(modules={"pkg.util": "low", "pkg": "high"})
        report = run_check(tmp_path, files, the_contract=mapped)
        assert report.findings == []

    def test_bad_contract_is_a_config_error(self):
        with pytest.raises(ConfigError):
            LayerContract.from_dict({"project": {"package": "pkg"}})
        with pytest.raises(ConfigError):
            contract(layers={"low": ["nope"]})
        with pytest.raises(ConfigError):
            contract(modules={"pkg.util": "nope"})

    def test_missing_contract_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            LayerContract.load(tmp_path / "absent.toml")


# -- call graph / mutation pass -----------------------------------------------


MUTATION_TREE = {
    "pkg/__init__.py": "",
    "pkg/low/__init__.py": "",
    "pkg/low/state.py": (
        "COUNTERS = {}\n"
        "def bump(key):\n"
        "    COUNTERS[key] = COUNTERS.get(key, 0) + 1\n"
    ),
    "pkg/mid/__init__.py": "",
    "pkg/mid/engine.py": (
        "from pkg.low.state import bump\n"
        "class Engine:\n"
        "    def run(self):\n"
        "        return self.step()\n"
        "    def step(self):\n"
        "        bump('ticks')\n"
    ),
}


class TestMutationPass:
    def entry_contract(self, *entrypoints):
        return contract_dict(callgraph={"entrypoints": list(entrypoints)})

    def test_transitive_module_state_mutation_found(self, tmp_path):
        report = run_check(
            tmp_path, MUTATION_TREE,
            the_contract=self.entry_contract("pkg.mid.engine.Engine.run"),
        )
        hits = [
            f for f in report.findings
            if f.rule == "timing-critical-mutation"
        ]
        assert len(hits) == 1
        assert "Engine.run -> pkg.mid.engine.Engine.step -> " \
            "pkg.low.state.bump" in hits[0].message
        assert hits[0].fingerprint == (
            "timing-critical-mutation:pkg.mid.engine.Engine.run:"
            "pkg.low.state.bump:COUNTERS"
        )

    def test_shared_config_mutation_through_attribute_type(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/low/__init__.py": "",
            "pkg/low/tuner.py": (
                "class Tuner:\n"
                "    def apply(self, config):\n"
                "        config.speed = 99\n"
            ),
            "pkg/mid/__init__.py": "",
            "pkg/mid/engine.py": (
                "from pkg.low.tuner import Tuner\n"
                "class Engine:\n"
                "    def __init__(self):\n"
                "        self.tuner = Tuner()\n"
                "    def run(self, config):\n"
                "        self.tuner.apply(config)\n"
            ),
        }
        report = run_check(
            tmp_path, files,
            the_contract=self.entry_contract("pkg.mid.engine.Engine.run"),
        )
        hits = [
            f for f in report.findings
            if f.rule == "timing-critical-mutation"
        ]
        assert len(hits) == 1
        assert hits[0].message.startswith(
            "pkg.mid.engine.Engine.run -> pkg.low.tuner.Tuner.apply"
        )
        assert "shared config" in hits[0].message

    def test_unreachable_mutation_not_flagged(self, tmp_path):
        report = run_check(
            tmp_path, MUTATION_TREE,
            the_contract=self.entry_contract("pkg.low.state.bump"),
        )
        # bump itself mutates, so entry at bump still reports; entry at
        # a function that never reaches bump must not.
        files = dict(MUTATION_TREE)
        files["pkg/mid/pure.py"] = "def quiet():\n    return 7\n"
        clean = run_check(
            tmp_path, files,
            the_contract=self.entry_contract("pkg.mid.pure.quiet"),
        )
        assert [
            f.rule for f in clean.findings
            if f.rule == "timing-critical-mutation"
        ] == []
        assert report.findings  # direct entry does report

    def test_local_and_self_mutations_are_clean(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/low/__init__.py": "",
            "pkg/low/calc.py": (
                "TABLE = {}\n"
                "class Calc:\n"
                "    def __init__(self):\n"
                "        self.cache = {}\n"
                "    def run(self, items):\n"
                "        TABLE = {}\n"           # local shadows the global
                "        TABLE['x'] = 1\n"
                "        self.cache['y'] = 2\n"  # own state is fine
                "        out = []\n"
                "        out.append(3)\n"
                "        return out\n"
            ),
        }
        report = run_check(
            tmp_path, files,
            the_contract=self.entry_contract("pkg.low.calc.Calc.run"),
        )
        assert [
            f.rule for f in report.findings
            if f.rule == "timing-critical-mutation"
        ] == []

    def test_global_statement_is_flagged(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/low/__init__.py": "",
            "pkg/low/g.py": (
                "TICKS = 0\n"
                "def tick():\n"
                "    global TICKS\n"
                "    TICKS = TICKS + 1\n"
            ),
        }
        report = run_check(
            tmp_path, files,
            the_contract=self.entry_contract("pkg.low.g.tick"),
        )
        hits = [
            f for f in report.findings
            if f.rule == "timing-critical-mutation"
        ]
        assert len(hits) == 1 and "TICKS" in hits[0].message

    def test_unknown_entrypoint_is_a_finding(self, tmp_path):
        report = run_check(
            tmp_path, CLEAN_TREE,
            the_contract=self.entry_contract("pkg.mid.work.nope"),
        )
        assert [f.rule for f in report.findings] == ["unknown-entrypoint"]


# -- dead / undeclared exports ------------------------------------------------


class TestExportChecks:
    def test_dead_export_found_and_live_ones_kept(self, tmp_path):
        graph = make_graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/low/__init__.py": "",
            "pkg/low/util.py": (
                "def used():\n    return 1\n"
                "def orphan():\n    return 2\n"
                "def _private_helper():\n    return 3\n"
            ),
            "pkg/mid/__init__.py": "",
            "pkg/mid/work.py": (
                "from pkg.low.util import used\n"
                "def work():\n    return used()\n"
            ),
        })
        findings = check_dead_exports(graph)
        # `work` is dead too (nothing references it), `orphan` is dead,
        # `used` is alive, `_private_helper` is out of scope.
        assert {f.fingerprint for f in findings} == {
            "dead-export:pkg.low.util.orphan",
            "dead-export:pkg.mid.work.work",
        }

    def test_reference_roots_keep_exports_alive(self, tmp_path):
        graph = make_graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/low/__init__.py": "",
            "pkg/low/util.py": "def orphan():\n    return 2\n",
        })
        tests_dir = write_tree(tmp_path / "tests", {
            "test_util.py": (
                "from pkg.low.util import orphan\n"
                "def test_orphan():\n    assert orphan() == 2\n"
            ),
        })
        assert check_dead_exports(graph) != []
        assert check_dead_exports(graph, reference_roots=[tests_dir]) == []

    def test_ignore_patterns(self, tmp_path):
        graph = make_graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/low/__init__.py": "",
            "pkg/low/util.py": "def orphan():\n    return 2\n",
        })
        assert check_dead_exports(graph, ignore=["pkg.low.*"]) == []

    def test_undeclared_import_is_a_finding(self, tmp_path):
        graph = make_graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/low/__init__.py": (
                "from pkg.low.util import real, ghost\n"
            ),
            "pkg/low/util.py": "def real():\n    return 1\n",
        })
        findings = check_undeclared_exports(graph)
        assert [f.fingerprint for f in findings] == [
            "undeclared-export:pkg.low:pkg.low.util.ghost"
        ]

    def test_importing_a_submodule_name_is_declared(self, tmp_path):
        graph = make_graph(tmp_path, {
            "pkg/__init__.py": "from pkg import low\n",
            "pkg/low/__init__.py": "from pkg.low import util\n",
            "pkg/low/util.py": "X = 1\n",
        })
        assert check_undeclared_exports(graph) == []

    def test_all_ghost_entry_is_a_finding(self, tmp_path):
        graph = make_graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/low/__init__.py": "",
            "pkg/low/util.py": (
                "__all__ = ['real', 'phantom']\n"
                "def real():\n    return 1\n"
            ),
        })
        findings = check_undeclared_exports(graph)
        assert [f.fingerprint for f in findings] == [
            "undeclared-export:pkg.low.util:__all__.phantom"
        ]


# -- baseline ratchet ---------------------------------------------------------


class TestBaselineRatchet:
    #: fingerprint of the deliberate violation every ratchet test plants
    WAIVED = "forbidden-import:pkg.mid.sneak->pkg.high.top"

    def _tree(self):
        # mid -> high is forbidden and acyclic (nothing imports sneak)
        files = dict(CLEAN_TREE)
        files["pkg/mid/sneak.py"] = (
            "from pkg.high.top import top\n"
            "def sneak():\n"
            "    return top()\n"
        )
        return files

    def _baseline(self, tmp_path, entries):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(
            {"version": 2, "gates": {"archcheck": entries}}
        ))
        return Baseline.load(path)

    def test_baselined_finding_passes_and_is_reported(self, tmp_path):
        baseline = self._baseline(tmp_path, [{
            "fingerprint": self.WAIVED,
            "justification": "historical helper, tracked in #42",
        }])
        report = run_check(tmp_path, self._tree(), baseline=baseline)
        assert report.ok
        assert [f.fingerprint for f in report.baselined] == [self.WAIVED]

    def test_new_finding_still_fails(self, tmp_path):
        baseline = self._baseline(tmp_path, [{
            "fingerprint": self.WAIVED,
            "justification": "historical helper",
        }])
        files = self._tree()
        files["pkg/low/sneak2.py"] = "from pkg.mid.work import work\n"
        report = run_check(tmp_path, files, baseline=baseline)
        assert not report.ok
        assert [f.fingerprint for f in report.findings] == [
            "forbidden-import:pkg.low.sneak2->pkg.mid.work"
        ]

    def test_stale_entry_is_surfaced(self, tmp_path):
        baseline = self._baseline(tmp_path, [{
            "fingerprint": "forbidden-import:pkg.gone->pkg.also.gone",
            "justification": "was fixed long ago",
        }])
        report = run_check(tmp_path, CLEAN_TREE, baseline=baseline)
        assert report.ok
        assert report.stale == [
            "forbidden-import:pkg.gone->pkg.also.gone"
        ]

    def test_unjustified_entry_fails_the_gate(self, tmp_path):
        baseline = self._baseline(tmp_path, [{
            "fingerprint": self.WAIVED,
            "justification": "",
        }])
        report = run_check(tmp_path, self._tree(), baseline=baseline)
        assert [f.rule for f in report.findings] == ["unjustified-baseline"]

    def test_update_baseline_writes_todo_that_still_fails(self, tmp_path):
        baseline = self._baseline(tmp_path, [])
        report = run_check(
            tmp_path, self._tree(), baseline=baseline, update_baseline=True,
        )
        written = json.loads((tmp_path / "baseline.json").read_text())
        (entry,) = written["gates"]["archcheck"]
        assert entry["justification"] == TODO_JUSTIFICATION
        # the violation is recorded, but the TODO stub keeps failing
        assert [f.rule for f in report.findings] == ["unjustified-baseline"]

    def test_update_baseline_preserves_existing_justifications(
        self, tmp_path
    ):
        baseline = self._baseline(tmp_path, [{
            "fingerprint": self.WAIVED,
            "justification": "historical helper, tracked in #42",
        }])
        run_check(
            tmp_path, self._tree(), baseline=baseline, update_baseline=True,
        )
        written = json.loads((tmp_path / "baseline.json").read_text())
        assert written["gates"]["archcheck"][0]["justification"] == (
            "historical helper, tracked in #42"
        )

    def test_malformed_baseline_is_a_config_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{\"entries\": 7}")
        with pytest.raises(ConfigError):
            Baseline.load(path)


# -- graph export -------------------------------------------------------------


class TestGraphExport:
    def test_dot_output_shape(self, tmp_path):
        graph = make_graph(tmp_path, CLEAN_TREE)
        dot = to_dot(graph, contract())
        assert dot.startswith("digraph layers {")
        assert '"mid" -> "low"' in dot
        assert '"high" -> "mid"' in dot
        assert "red" not in dot

    def test_forbidden_edge_is_red(self, tmp_path):
        files = dict(CLEAN_TREE)
        files["pkg/low/base.py"] = (
            "from pkg.high.top import top\n"
            "def helper():\n    return top()\n"
        )
        graph = make_graph(tmp_path, files)
        dot = to_dot(graph, contract())
        assert '"low" -> "high" [label="1", color="red", penwidth=2.0];' \
            in dot

    def test_graph_dict_round_trips_through_json(self, tmp_path):
        graph = make_graph(tmp_path, CLEAN_TREE)
        payload = json.loads(json.dumps(graph_to_dict(graph, contract())))
        assert payload["package"] == "pkg"
        assert payload["modules"]["pkg.mid.work"]["layer"] == "mid"
        assert payload["modules"]["pkg.mid.work"]["imports"] == [
            "pkg.low.base"
        ]


# -- the repository gate ------------------------------------------------------


class TestRepositoryGate:
    def test_repo_tip_is_clean_under_its_own_contract(self):
        """The acceptance gate: the shipped tree passes archcheck."""
        baseline = Baseline.load(REPO_ROOT / "check-baseline.json")
        (report,) = run_gates(["archcheck"], GateOptions(
            src=str(REPO_ROOT / "src"),
            contract=str(REPO_ROOT / "archcontract.toml"),
        ), baseline)
        assert report.findings == [], [f.message for f in report.findings]
        assert report.stale == []
        # every waiver carries a real justification
        assert all(
            j.strip() and j != TODO_JUSTIFICATION
            for j in baseline.gates["archcheck"].values()
        )

    def test_repo_callgraph_reaches_the_memory_model(self):
        """The replay entry point must actually traverse into memory/."""
        graph = ModuleGraph.build(REPO_ROOT / "src", packages=["repro"])
        cg = CallGraph(graph)
        entry = "repro.sim.replay.TraceReplayer.run"
        seen = {entry}
        queue = [entry]
        while queue:
            for callee in sorted(cg.functions[queue.pop(0)].calls):
                if callee not in seen:
                    seen.add(callee)
                    queue.append(callee)
        assert any(q.startswith("repro.memory.") for q in seen)
        assert any(q.startswith("repro.core.") for q in seen)


# -- CLI ----------------------------------------------------------------------


class TestCli:
    def _write_fixture(self, tmp_path, files, baseline_entries=None):
        src = write_tree(tmp_path / "src", files)
        contract_path = tmp_path / "archcontract.toml"
        contract_path.write_text(
            '[project]\npackage = "pkg"\n\n'
            "[layers]\n"
            "low = []\n"
            'mid = ["low"]\n'
            'high = ["mid", "low"]\n\n'
            "[modules]\n"
            '"pkg" = "high"\n\n'
            "[deadcode]\n"
            'ignore = ["*"]\n'
        )
        baseline_path = tmp_path / "baseline.json"
        if baseline_entries is not None:
            baseline_path.write_text(json.dumps(
                {"version": 2, "gates": {"archcheck": baseline_entries}}
            ))
        return src, contract_path, baseline_path

    def _argv(self, src, contract_path, baseline_path, *extra):
        return [
            "check", "--only", "archcheck", "--src", str(src),
            "--contract", str(contract_path),
            "--baseline", str(baseline_path),
            *extra,
        ]

    def test_clean_fixture_exits_zero(self, tmp_path, capsys):
        src, ct, bl = self._write_fixture(tmp_path, CLEAN_TREE)
        assert main(self._argv(src, ct, bl)) == 0
        out = capsys.readouterr().out
        assert "archcheck: no findings" in out
        assert "modules" in out

    def test_forbidden_edge_exits_one_with_json(self, tmp_path, capsys):
        files = dict(CLEAN_TREE)
        files["pkg/low/sneak.py"] = "from pkg.mid.work import work\n"
        src, ct, bl = self._write_fixture(tmp_path, files)
        assert main(self._argv(src, ct, bl, "--format", "json")) == 1
        payload = json.loads(capsys.readouterr().out)["gates"]["archcheck"]
        assert payload["tool"] == "archcheck"
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "forbidden-import"
        assert payload["findings"][0]["fingerprint"] == (
            "forbidden-import:pkg.low.sneak->pkg.mid.work"
        )

    def test_dot_and_graph_json_written(self, tmp_path, capsys):
        src, ct, bl = self._write_fixture(tmp_path, CLEAN_TREE)
        graphs = tmp_path / "graphs"
        assert main(self._argv(src, ct, bl, "--graphs", str(graphs))) == 0
        capsys.readouterr()
        assert (graphs / "layers.dot").read_text().startswith(
            "digraph layers {"
        )
        graph = json.loads((graphs / "modules.json").read_text())
        assert graph["modules"]["pkg.high.top"]["layer"] == "high"

    def test_missing_contract_is_fatal(self, tmp_path, capsys):
        src = write_tree(tmp_path / "src", CLEAN_TREE)
        code = main([
            "check", "--only", "archcheck", "--src", str(src),
            "--contract", str(tmp_path / "absent.toml"),
            "--baseline", str(tmp_path / "baseline.json"),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "archcheck: exit 2 (fatal)" in out
        assert "no architecture contract" in out

    def test_repo_defaults_exit_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["check", "--only", "archcheck"]) == 0
        out = capsys.readouterr().out
        assert "archcheck: no findings" in out
        assert "baselined: 1" in out
