"""Compare two sets of benchmark runs (parent ``A``, change ``B``).

For each (workload, metric) the verdict follows the benchmark's rule:

* ``worse`` -- B's median is worse than A's by more than the metric's
  bound (end-to-end metrics) or, for unbounded per-layer metrics, by
  more than A's quartile spread while B loses nine pairs in ten;
* ``better`` -- the medians differ by more than A's quartile spread in
  B's favour and B wins at least nine pairs in ten (runs are paired in
  the order given);
* ``unresolved`` -- A's own spread is wider than the bound, and not
  every run of B beats every run of A;
* ``same`` -- everything else.

Runs of the same workload and seed must produce identical RunResult
digests and fidelity values; every difference is listed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(
    a: Sequence[float], b: Sequence[float], better: str,
    bound: Optional[float],
) -> str:
    sign = 1.0 if better == "higher" else -1.0
    median_a = statistics.median(a)
    gain = sign * (statistics.median(b) - median_a)
    scale = abs(median_a) or 1.0
    spread = quartile_spread(a)
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    losses = sum(sign * (y - x) < 0 for x, y in pairs)
    if bound is not None and spread > bound * scale:
        all_better = min(b) > max(a) if sign > 0 else max(b) < min(a)
        return "better" if all_better else "unresolved"
    if bound is not None and -gain > bound * scale:
        return "worse"
    if abs(gain) > spread and pairs:
        if gain > 0 and wins >= 0.9 * len(pairs):
            return "better"
        if bound is None and gain < 0 and losses >= 0.9 * len(pairs):
            return "worse"
    return "same"


def _load(paths: Sequence[str]) -> List[dict]:
    runs: List[dict] = []
    for path in paths:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        runs.extend(payload if isinstance(payload, list) else [payload])
    return runs


def compare_runs(a_runs: List[dict], b_runs: List[dict], spec: dict):
    """``(rows, differences)``: one verdict row per (workload, metric)."""
    metrics: Dict[str, dict] = {}
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            metrics[metric["name"]] = metric
    rows = []
    keys = sorted({
        (run["workload"], name) for run in a_runs for name in run["metrics"]
    })
    for workload, name in keys:
        a = [r["metrics"][name]["value"] for r in a_runs
             if r["workload"] == workload and name in r["metrics"]]
        b = [r["metrics"][name]["value"] for r in b_runs
             if r["workload"] == workload and name in r["metrics"]]
        if not b:
            continue
        metric = metrics[name]
        rows.append({
            "workload": workload, "metric": name, "unit": metric["unit"],
            "a": statistics.median(a), "b": statistics.median(b),
            "spread": quartile_spread(a), "bound": metric.get("bound"),
            "verdict": verdict(a, b, metric["better"], metric.get("bound")),
        })

    differences = []
    reference: Dict[tuple, dict] = {}
    for run in a_runs + b_runs:
        key = (run["workload"], run["seed"], run.get("smoke", False))
        outputs = {**run["digests"],
                   **{f"fidelity:{k}": v for k, v in run["fidelity"].items()}}
        first = reference.setdefault(key, outputs)
        for op in sorted(set(first) | set(outputs)):
            if first.get(op) != outputs.get(op):
                differences.append(f"{key[0]} seed {key[1]}: {op}")
    return rows, sorted(set(differences))


def compare_files(a_paths, b_paths, spec: dict) -> int:
    """Print the verdicts; exit status 1 on any regression or difference."""
    rows, differences = compare_runs(_load(a_paths), _load(b_paths), spec)
    print(f"{'workload':12s} {'metric':30s} {'A median':>12s} "
          f"{'B median':>12s} {'A spread':>10s} {'bound':>6s}  verdict")
    for row in rows:
        bound = "-" if row["bound"] is None else f"{row['bound']:.0%}"
        print(f"{row['workload']:12s} {row['metric']:30s} {row['a']:12.5g} "
              f"{row['b']:12.5g} {row['spread']:10.3g} {bound:>6s}  "
              f"{row['verdict']}")
    for difference in differences:
        print(f"DIFFERS: {difference}")
    worse = [r for r in rows if r["verdict"] == "worse"]
    return 1 if worse or differences else 0
