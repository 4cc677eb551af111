"""The repository benchmark: four workloads, end-to-end and per-layer.

Run one workload (the form ``BENCHMARK.json`` names)::

    python3 perfbench/bench.py --workload suite-sweep --seed 1 \
        --seconds 20 --trace 0

or all four, each in its own fresh interpreter, one after another::

    python3 perfbench/bench.py [--seed N] [--seconds S] [--trace 0|1] \
        [--out runs.json]

Compare two sets of ``--out`` files (parent first)::

    python3 perfbench/bench.py --compare a1.json a2.json -- b1.json b2.json

With ``--trace 0`` a run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer metrics
instead, measured by patching each layer's entry point with a span
recorder (``tracer.py``) and writing the spans as Chrome trace-event
JSON under ``.bench_out/``.  The last line of standard output is always
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tracer as tracing  # noqa: E402
from perfbench.compare import compare_files  # noqa: E402
from perfbench.workloads import WORKLOADS, Clock, self_peak_rss_kb  # noqa: E402

SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_out"
#: Fresh-interpreter set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 7


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


# -- set-up probes -------------------------------------------------------------


def probe_setup(workload: str, seed: int, smoke: bool) -> float:
    """Seconds from spawning an interpreter until the workload is set up."""
    command = [sys.executable, str(Path(__file__)), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
    if line.strip() != "ready" or child.returncode:
        raise RuntimeError(f"set-up probe for {workload} failed")
    return ready - start


def run_setup_probe(workload: str, seed: int, smoke: bool) -> int:
    with tempfile.TemporaryDirectory(dir=_work_root()) as work_dir:
        WORKLOADS[workload](seed, smoke, Clock(), Path(work_dir)).setup()
    print("ready", flush=True)
    return 0


def _work_root() -> Path:
    """Scratch space inside the checkout (the benchmark writes nowhere else)."""
    path = ROOT / ".bench_tmp"
    path.mkdir(exist_ok=True)
    return path


def _remove_work_root_if_empty() -> None:
    path = ROOT / ".bench_tmp"
    if path.is_dir() and not any(path.iterdir()):
        path.rmdir()


# -- measurement ---------------------------------------------------------------


def run_cycles(workload, budget: float) -> list:
    """Repeat cycles while another one still fits in ``budget`` seconds.

    Always runs at least one.  Returns one list of units per cycle; an
    exception ends the loop and counts as a failed operation.
    """
    clock = workload.clock
    cycles = []
    start = clock.now()
    while True:
        began = clock.now()
        try:
            cycles.append(workload.cycle())
        except Exception as error:  # a crashed operation is a failure
            workload.fail(f"cycle raised {type(error).__name__}: {error}")
            break
        last = clock.now() - began
        if clock.now() - start + last > budget:
            break
    return cycles


def unit_medians(cycles: list) -> dict:
    """Per unit key: ``(median seconds over cycles, quads)``."""
    seconds, quads = {}, {}
    for units in cycles:
        for unit in units:
            seconds.setdefault(unit.key, []).append(unit.seconds)
            quads[unit.key] = unit.quads
    return {k: (statistics.median(v), quads[k]) for k, v in seconds.items()}


def cycle_seconds(cycles: list) -> float:
    """Median body seconds of one cycle."""
    return sum(median for median, _ in unit_medians(cycles).values())


def peak_rss_mb() -> float:
    """max(own VmHWM, largest reaped child's ru_maxrss), in MiB."""
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_peak_rss_kb(), children_kb) / 1024.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, cycles: list, overhead: float) -> dict:
    """Per-layer metrics from the traced cycles (times and counts per cycle)."""
    spans = tracer.spans
    per = 1.0 / max(1, len(cycles))
    own = tracing.self_times(spans)
    counts = tracing.summed_counts(spans)
    for key, value in tracer.counters.items():
        counts[key] = counts.get(key, 0.0) + value
    c = lambda key: counts.get(key, 0.0)  # noqa: E731
    t = lambda name: own.get(name, 0.0)  # noqa: E731
    wall = cycle_seconds(cycles) * len(cycles)
    parent_self = tracing.self_times(spans, pid=tracer.pid)
    attributed = sum(
        seconds for name, seconds in parent_self.items()
        if name != tracing.CHECK_SPAN
    )
    pass1 = {"sim.render", "stream"}
    render_s = tracing.outermost_time(spans, pass1)
    replay_s = tracing.outermost_time(spans, {"sim.replay"}) - (
        tracing.outermost_time(spans, pass1, within="sim.replay")
    )
    return {
        "geometry.vertex_s": t("geometry.vertex") * per,
        "geometry.vertices": c("geometry.vertices") * per,
        "geometry.assembly_s": t("geometry.assembly") * per,
        "geometry.primitives": c("geometry.primitives") * per,
        "geometry.clip_s": t("geometry.clip") * per,
        "raster.setup_s": t("raster.setup") * per,
        "tiling.binning_s": t("tiling.binning") * per,
        "tiling.fetch_s": t("tiling.fetch") * per,
        "tiling.tiles": c("tiling.tiles") * per,
        "raster.rasterize_s": t("raster.rasterize") * per,
        "raster.z_cull_rate": _ratio(c("render.z_cull_sum"),
                                     c("render.frames")),
        "texture.footprint_s": t("texture.footprint") * per,
        "texture.quads": c("texture.quads") * per,
        "texture.lines_per_quad": _ratio(c("texture.lines"),
                                         c("texture.quads")),
        "sim.render_self_s": t("sim.render") * per,
        "sim.render_quads_per_s": _ratio(c("texture.quads"), render_s),
        "core.scheduler_s": t("core.scheduler") * per,
        "memory.quad_loop_s": t("memory.quad_loop") * per,
        "memory.lines_per_s": _ratio(c("memory.l1_accesses"),
                                     t("memory.quad_loop")),
        "memory.prologue_s": t("memory.prologue") * per,
        "sim.quad_stream_s": t("sim.quad_stream") * per,
        "memory.l1_hit_ratio": 1.0 - _ratio(c("memory.l1_misses"),
                                            c("memory.l1_accesses")),
        "memory.l2_hit_ratio": 1.0 - _ratio(c("memory.l2_misses"),
                                            c("memory.l2_accesses")),
        "memory.dram_accesses": c("memory.dram_accesses") * per,
        "memory.warmup_ratio": _ratio(c("animation.warmup_sum"),
                                      c("animation.runs")),
        "raster.timing_s": t("raster.timing") * per,
        "raster.sim_cycles": c("raster.sim_cycles") * per,
        "raster.sc_idle_frac": 1.0 - _ratio(c("raster.sc_issue_cycles"),
                                            c("raster.sc_capacity_cycles")),
        "power.energy_s": t("power.energy") * per,
        "sim.replay_self_s": t("sim.replay") * per,
        "sim.replay_quads_per_s": _ratio(c("replay.quads"), replay_s),
        "stream.self_s": t("stream") * per,
        "checkpoint.chunk_save_s": t("checkpoint.chunk_save") * per,
        "checkpoint.chunk_saves": c("checkpoint.chunk_saves") * per,
        "checkpoint.chunk_load_s": t("checkpoint.chunk_load") * per,
        "checkpoint.chunk_loads": c("checkpoint.chunk_loads") * per,
        "checkpoint.chunk_hit_ratio": _ratio(c("checkpoint.chunk_hits"),
                                             c("checkpoint.chunk_loads")),
        "checkpoint.bytes_written": c("checkpoint.bytes_written") * per,
        "checkpoint.journal_s": t("checkpoint.journal") * per,
        "sweep.render_phase_s": c("sweep.render") * per,
        "sweep.pool_startup_s": c("sweep.pool_startup") * per,
        "sweep.replay_phase_s": c("sweep.replay") * per,
        "trace.wall_s": wall * per,
        "trace.orchestration_s": (wall - attributed) * per,
        "trace.overhead_frac": overhead,
    }


def run_workload(args) -> dict:
    """One workload: set up, measure, probe set-up time, check outputs."""
    cls = WORKLOADS[args.workload]
    clock = Clock()
    work_dir = Path(tempfile.mkdtemp(dir=_work_root()))
    tracer = None
    try:
        workload = cls(args.seed, args.smoke, clock, work_dir)
        workload.setup()
        if args.trace:
            # Untraced first half, traced second half: the ratio of their
            # cycle times is the tracing overhead.
            untraced = run_cycles(workload, args.seconds / 2)
            tracer = tracing.Tracer(work_dir / "spans")
            tracer.arm()
            clock.tracer = tracer
            try:
                cycles = run_cycles(workload, args.seconds / 2)
            finally:
                clock.tracer = None
                tracer.disarm()
            tracer.merge_workers()
        else:
            cycles = run_cycles(workload, args.seconds)
        rss_mb = peak_rss_mb()
        setup_s = statistics.median(
            probe_setup(args.workload, args.seed, args.smoke)
            for _ in range(SETUP_PROBES)
        )
        if not workload.problems:
            try:
                workload.check()
            except Exception as error:  # a crashed check is a failure
                workload.fail(f"check raised {type(error).__name__}: {error}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        _remove_work_root_if_empty()

    medians = unit_medians(cycles)
    if args.trace:
        overhead = _ratio(cycle_seconds(cycles), cycle_seconds(untraced)) - 1
        metrics = layer_metrics(tracer, cycles, overhead)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_chrome_trace(trace_path)
        print(f"chrome trace: {trace_path.relative_to(ROOT)}")
    else:
        metrics = {
            "quads_per_s": _ratio(
                sum(quads for _, quads in medians.values()),
                sum(seconds for seconds, _ in medians.values()),
            ),
            "peak_rss_mb": rss_mb,
            "setup_s": setup_s,
        }
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in load_spec()[section]}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"emitted metrics {sorted(metrics)} do not match BENCHMARK.json "
            f"{section} {sorted(units)}"
        )
    for problem in workload.problems:
        print(f"FAILED: {problem}")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "smoke": args.smoke,
        "cycles": len(cycles),
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
        "digests": workload.digests,
        "fidelity": workload.fidelity,
    }


# -- command line ------------------------------------------------------------


def print_record(record: dict) -> None:
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{record['cycles']} cycle(s), trace {record['trace']})")
    for name, metric in record["metrics"].items():
        print(f"  {name:28s} {metric['value']:16.6g} {metric['unit']}")
    for name, value in record["fidelity"].items():
        print(f"  fidelity {name:19s} {value:16.6g}")
    print(f"  correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']}")


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, one after another."""
    records = []
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(int(args.trace))]
        if args.smoke:
            command.append("--smoke")
        with tempfile.TemporaryDirectory(dir=_work_root()) as out_dir:
            out = Path(out_dir) / "run.json"
            subprocess.run(command + ["--out", str(out)], check=True,
                           stdout=subprocess.DEVNULL)
            record = json.loads(out.read_text(encoding="utf-8"))
        print_record(record)
        records.append(record)
    _remove_work_root_if_empty()
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    return 0 if all(r["correct"] for r in records) else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "--compare":
        rest = argv[1:]
        if "--" not in rest:
            print("usage: bench.py --compare A.json... -- B.json...",
                  file=sys.stderr)
            return 2
        split = rest.index("--")
        return compare_files(rest[:split], rest[split + 1:], load_spec())

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full run record(s) here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.setup_probe:
        return run_setup_probe(args.workload, args.seed, args.smoke)
    if args.workload is None:
        return run_all(args)

    record = run_workload(args)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print_record(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
