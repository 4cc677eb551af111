"""Tests of the benchmark itself.

Run with ``pytest perfbench/test_bench.py``.  The end-to-end cases run
every workload at the ``--smoke`` size (128x64, two games), traced and
untraced, in subprocesses exactly as the benchmark command is run.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import tracer as tracing
from perfbench.compare import compare_runs, verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(workload: str, trace: int, out_dir: Path, seed: int = 0):
    out = out_dir / f"{workload}-{trace}-{seed}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
         "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last_line = json.loads(proc.stdout.strip().splitlines()[-1])
    return last_line, json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("runs")
    return {
        (workload, trace): _run(workload, trace, out_dir)
        for workload in WORKLOADS for trace in (0, 1)
    }


def test_spec_names_and_units_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    assert len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_exactly_the_spec_metrics(runs, workload, trace):
    last_line, record = runs[workload, trace]
    assert set(last_line) == {"correct", "attempted", "failed", "metrics"}
    assert last_line["correct"] is True
    assert last_line["failed"] == 0 and last_line["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    emitted = last_line["metrics"]
    assert {k: v["unit"] for k, v in emitted.items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in emitted.values())
    assert record["metrics"] == emitted


@pytest.mark.parametrize("workload", ["suite-sweep", "paper-frame"])
def test_layer_self_times_add_up_to_the_traced_wall_time(runs, workload):
    metrics = {k: v["value"] for k, v in runs[workload, 1][0]["metrics"]
               .items()}
    layers = sum(
        value for name, value in metrics.items()
        if name.endswith("_s") and not name.endswith("per_s")
        and not name.startswith(("trace.", "sweep."))
    )
    wall = metrics["trace.wall_s"]
    assert layers + metrics["trace.orchestration_s"] == pytest.approx(
        wall, rel=0.05
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_give_identical_digests(runs, workload):
    untraced = runs[workload, 0][1]
    traced = runs[workload, 1][1]
    assert untraced["digests"]
    assert traced["digests"] == untraced["digests"]
    assert traced["fidelity"] == untraced["fidelity"]


def test_another_seed_keeps_metrics_and_changes_digests(runs, tmp_path):
    base = runs["suite-sweep", 0][1]
    other = _run("suite-sweep", 0, tmp_path, seed=1)[1]
    assert set(other["metrics"]) == set(base["metrics"])
    assert set(other["digests"]) == set(base["digests"])
    assert all(other["digests"][k] != v for k, v in base["digests"].items())


def _span(name, start, end, parent=None, pid=1, counts=None):
    return [name, start, end, parent, pid, counts]


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    spans = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 4.0, parent=0, counts={"n": 2}),
        _span("c", 5.0, 9.0, parent=0),
        _span("b", 6.0, 7.0, parent=2, counts={"n": 3}),
        _span("w", 2.0, 8.0, pid=2),
    ]
    assert tracing.self_times(spans) == {
        "a": 3.0, "b": 4.0, "c": 3.0, "w": 6.0
    }
    # Every span's self time sums to its process's top-level durations.
    assert sum(tracing.self_times(spans, pid=1).values()) == 10.0
    assert tracing.outermost_time(spans, {"b", "c"}) == 7.0
    assert tracing.outermost_time(spans, {"b"}, within="c") == 1.0
    assert tracing.summed_counts(spans) == {"n": 5}


class _Toy:
    @staticmethod
    def leaf(x):
        return x + 1

    def items(self):
        for i in range(3):
            yield _Toy.leaf(i)


def test_tracer_nests_generator_spans_and_restores_originals(tmp_path):
    original_items = _Toy.items
    tracer = tracing.Tracer(tmp_path)
    tracer.arm((
        (f"{__name__}:_Toy", "leaf", "leaf", lambda r: {"leaves": 1}),
        (f"{__name__}:_Toy", "items", "items", None),
    ))
    try:
        with tracer.span("outer"):
            assert list(_Toy().items()) == [1, 2, 3]
        with tracer.check_span():
            _Toy.leaf(0)
    finally:
        tracer.disarm()
    assert _Toy.items is original_items
    assert isinstance(_Toy.__dict__["leaf"], staticmethod)
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["outer"] + ["items", "leaf"] * 3 + ["items"] + [
        tracing.CHECK_SPAN
    ]
    for span in tracer.spans[1:-1]:
        parent = tracer.spans[span[tracing.PARENT]][tracing.NAME]
        assert parent == ("outer" if span[tracing.NAME] == "items"
                          else "items")
    assert tracing.summed_counts(tracer.spans) == {"leaves": 3}


@pytest.mark.parametrize("a, b, better, bound, expected", [
    ([100, 101, 99, 100, 100], [100, 100, 101, 99, 100], "higher", 0.1,
     "same"),
    ([100, 101, 99, 100, 100], [85, 86, 84, 85, 85], "higher", 0.1,
     "worse"),
    ([100, 101, 99, 100, 100], [105, 106, 104, 105, 105], "higher", 0.1,
     "better"),
    ([100, 101, 99, 100, 100], [95, 96, 94, 95, 95], "lower", 0.1,
     "better"),
    ([50, 100, 150, 80, 120], [100, 100, 100, 100, 100], "higher", 0.1,
     "unresolved"),
    ([50, 100, 150, 80, 120], [200, 210, 220, 230, 240], "higher", 0.1,
     "better"),
    ([1.0] * 5, [2.0] * 5, "lower", None, "worse"),
    ([1.0] * 5, [1.0] * 5, "lower", None, "same"),
])
def test_compare_verdicts(a, b, better, bound, expected):
    assert verdict(a, b, better, bound) == expected


def test_compare_lists_differing_digests():
    spec = {"end_to_end": [{"name": "quads_per_s", "unit": "quads/s",
                            "better": "higher", "bound": 0.1}],
            "per_layer": []}

    def run(value, digest):
        return {"workload": "w", "seed": 0, "fidelity": {},
                "metrics": {"quads_per_s": {"value": value,
                                            "unit": "quads/s"}},
                "digests": {"op": digest}}

    rows, differences = compare_runs(
        [run(100, "x"), run(101, "x")], [run(100, "x"), run(99, "y")], spec
    )
    assert [r["verdict"] for r in rows] == ["same"]
    assert differences == ["w seed 0: op"]
