"""The gate engine behind ``repro check``: one report, one baseline."""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

from repro.analysis.arch import Baseline, TODO_JUSTIFICATION
from repro.analysis.gates import GATES, GateOptions, run_gates
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The pinned waivers, as sha256 digests of their justifications
#: (byte-identical text).  A deliberate re-citation of a waiver's
#: numbers updates its digest here; a deleted waiver leaves the set.
WAIVERS = {
    "faultcheck": {
        "swallowed-base-exception:repro.sim.chaos.run_chaos:"
        "repro.sim.faults.InjectedKill": "38e68ec058e80614",
    },
    "perfcheck": {
        "hot-loop-allocation:repro.raster.pipeline."
        "RasterPipelineModel.simulate:comprehension": "6ddb0d3f31e98187",
        "hot-loop-allocation:repro.raster.pipeline."
        "RasterPipelineModel.simulate:list-literal": "3faed1ab7c0579f4",
    },
}

#: A fixture package whose only faultcheck finding is a swallowed
#: kill; the other gates pass on it.
SWALLOWING_TREE = {
    "pkg/__init__.py": "",
    "pkg/boundary.py": (
        "def shield(fn):\n"
        "    try:\n"
        "        return fn()\n"
        "    except BaseException:\n"
        "        return None\n"
    ),
}
SWALLOWED = "swallowed-base-exception:pkg.boundary.shield:BaseException"


def write_tree(root: Path, files: dict) -> Path:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


def canonical(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestWaiversCarryOver:
    def test_baseline_holds_exactly_the_pinned_waivers(self):
        baseline = Baseline.load(REPO_ROOT / "check-baseline.json")
        digests = {
            gate: {
                fingerprint: hashlib.sha256(
                    justification.encode("utf-8")
                ).hexdigest()[:16]
                for fingerprint, justification in entries.items()
            }
            for gate, entries in baseline.gates.items()
        }
        assert digests == WAIVERS

    def test_baseline_file_is_canonical(self):
        text = (REPO_ROOT / "check-baseline.json").read_text("utf-8")
        assert canonical(json.loads(text)) == text


class TestJsonDocument:
    def test_tip_is_one_parseable_document(self, monkeypatch, capsys,
                                           tmp_path):
        monkeypatch.chdir(REPO_ROOT)
        report_path = tmp_path / "check-report.json"
        code = main(["check", "--format", "json",
                     "--report", str(report_path)])
        out = capsys.readouterr().out
        document = json.loads(out)
        assert code == 0
        assert list(document["gates"]) == sorted(GATES)
        assert (document["clean"], document["total"]) == (4, 4)
        baselined = {
            name: gate["stats"]["baselined"]
            for name, gate in document["gates"].items()
        }
        assert baselined == {
            "lint": 0, "archcheck": 0, "faultcheck": 1, "perfcheck": 2,
        }
        for name, gate in document["gates"].items():
            assert gate["exit"] == 0, name
            assert gate["count"] == 0, name
            assert gate["stale_baseline"] == [], name
        # --report writes the very document --format json prints
        assert report_path.read_text("utf-8") == out

    def test_broken_gate_is_fatal_in_the_document(self, tmp_path, capsys):
        src = write_tree(tmp_path / "src", SWALLOWING_TREE)
        code = main([
            "check", "--src", str(src), "--package", "pkg",
            "--contract", str(tmp_path / "absent.toml"),
            "--perf-contract", str(tmp_path / "absent.toml"),
            "--baseline", str(tmp_path / "check-baseline.json"),
            "--format", "json",
        ])
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert (document["clean"], document["total"]) == (1, 4)
        gates = document["gates"]
        assert gates["archcheck"]["exit"] == 2
        assert "no architecture contract" in gates["archcheck"]["error"]
        assert gates["perfcheck"]["exit"] == 2
        assert gates["faultcheck"]["exit"] == 1
        assert [f["fingerprint"] for f in gates["faultcheck"]["findings"]] \
            == [SWALLOWED]


class TestUpdateBaseline:
    def test_only_the_selected_namespace_is_rewritten(self, tmp_path,
                                                      capsys):
        baseline_path = tmp_path / "check-baseline.json"
        shutil.copy(REPO_ROOT / "check-baseline.json", baseline_path)
        before = baseline_path.read_text("utf-8")
        src = write_tree(tmp_path / "src", SWALLOWING_TREE)
        code = main([
            "check", "--only", "faultcheck", "--src", str(src),
            "--package", "pkg", "--baseline", str(baseline_path),
            "--update-baseline",
        ])
        out = capsys.readouterr().out
        assert code == 1  # the TODO stub still gates
        assert "unjustified-baseline" in out
        old = json.loads(before)
        new = json.loads(baseline_path.read_text("utf-8"))
        assert new["gates"]["faultcheck"] == [
            {"fingerprint": SWALLOWED, "justification": TODO_JUSTIFICATION}
        ]
        # everything outside faultcheck's namespace is byte-identical
        new["gates"]["faultcheck"] = old["gates"]["faultcheck"]
        assert canonical(new) == before


class TestSelection:
    def test_unknown_gate_is_fatal(self, tmp_path, capsys):
        assert main(["check", "--only", "nope"]) == 2
        assert "unknown gate(s) nope" in capsys.readouterr().err
        # a misspelt baseline namespace is an unknown gate too
        baseline = tmp_path / "check-baseline.json"
        baseline.write_text('{"version": 2, "gates": {"perfchek": []}}')
        assert main(["check", "--baseline", str(baseline)]) == 2
        assert "unknown gate(s) perfchek" in capsys.readouterr().err

    def test_only_runs_in_table_order_once(self, tmp_path, capsys):
        src = write_tree(tmp_path / "src", SWALLOWING_TREE)
        main([
            "check", "--only", "faultcheck", "--only", "lint",
            "--only", "faultcheck", "--src", str(src), "--package", "pkg",
            "--baseline", str(tmp_path / "check-baseline.json"),
        ])
        out = capsys.readouterr().out
        assert out.count("== ") == 2
        assert out.index("== lint ==") < out.index("== faultcheck ==")
        assert "1/2 gates clean" in out

    def test_serial_fallback_matches_the_pool(self, tmp_path, monkeypatch):
        import repro.analysis.gates as gates

        src = write_tree(tmp_path / "src", SWALLOWING_TREE)
        options = GateOptions(src=str(src), package="pkg")
        names = ["lint", "faultcheck"]
        baseline = Baseline(path=tmp_path / "check-baseline.json")
        pooled = run_gates(names, options, baseline)

        def no_pool(*args, **kwargs):
            raise OSError("no process pool here")

        monkeypatch.setattr(gates, "ProcessPoolExecutor", no_pool)
        serial = run_gates(names, options, baseline)
        assert [r.as_dict() for r in serial] == [r.as_dict() for r in pooled]
        assert [r.ok for r in serial] == [True, False]

