"""Render- and replay-engine performance harness.

Measures the throughput of the pass-1 render front-end and the pass-2
replay engine (fast vs reference for both) over the game suite, plus
serial-vs-parallel sweep wall time and the memory/time profile of the
two tile-stream drivers, and writes the results as
``BENCH_replay.json`` at the repository root.  This is the evidence for
the fast-engine speedup targets and the CI perf-smoke regression gate.
The render leg also cross-checks the two engines' trace digests per
game, so the perf evidence doubles as a bit-exactness smoke test.

The streaming leg spawns one subprocess per driver (``ru_maxrss`` is
monotonic per process, so peak RSS cannot be measured twice in one
interpreter) and stamps end-to-end seconds, peak RSS, and a digest of
the :class:`~repro.sim.replay.RunResult` for the largest suite game,
rendered at a fixed ``STREAM_PROBE_SCALE`` whatever the bench scale.
The probes run as adjacent (batch, streaming) pairs, alternating which
driver goes first, and the time ratio is the median of the per-pair
ratios, so host load that comes and goes hits both halves of a pair
alike.  ``--check`` then gates on that ratio, on the batch-vs-streaming
RSS ratio and on result equality across drivers.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_replay.py
    PYTHONPATH=src python benchmarks/perf/bench_replay.py \
        --check benchmarks/perf/baseline_small.json

Environment knobs (matching the figure benches):

* ``REPRO_BENCH_SCALE``   — ``small`` (default, 512x256), ``paper``, or
  ``WIDTHxHEIGHT``.
* ``REPRO_BENCH_GAMES``   — comma-separated aliases (default: all ten).
* ``REPRO_BENCH_REPEATS`` — timing repeats (default 3): best-of for
  the engine timings, probe pairs for the stream drivers.
* ``REPRO_BENCH_JOBS``    — worker count for the parallel sweep leg
  (default: 2, clamped to the host's CPU count — extra workers on a
  single-CPU host only add pool overhead).
* ``REPRO_BENCH_REGRESSION_FACTOR`` — regression tolerance for
  ``--check`` (default 2.0; raise it on noisy runners instead of
  deleting the gate).

``--check BASELINE.json`` compares the measured fast-engine throughput
against a committed baseline and exits non-zero on a more-than-2x
regression (generous on purpose: CI machines vary, order-of-magnitude
slowdowns don't).
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parents[2]
OUTPUT_NAME = "BENCH_replay.json"

#: A measured throughput below baseline * (1 / REGRESSION_FACTOR) fails.
#: Overridable per runner so a flaky CI host widens the gate instead of
#: switching it off.
REGRESSION_FACTOR = float(
    os.environ.get("REPRO_BENCH_REGRESSION_FACTOR", "2.0")
)

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.lint.sanitizer import trace_digest  # noqa: E402
from repro.config import GPUConfig  # noqa: E402
from repro.core.dtexl import BASELINE, DTEXL_BEST  # noqa: E402
from repro.sim.driver import ENGINES as RENDER_ENGINES  # noqa: E402
from repro.sim.driver import FrameRenderer  # noqa: E402
from repro.sim.experiment import ExperimentRunner  # noqa: E402
from repro.sim.replay import ENGINES, TraceReplayer  # noqa: E402
from repro.sim.stream import STREAM_DRIVERS  # noqa: E402
from repro.sim.sweep import DesignSweep  # noqa: E402
from repro.workloads.games import build_game, game_aliases  # noqa: E402

DESIGNS = (BASELINE, DTEXL_BEST)

#: Acceptance target: streaming's peak-RSS growth must stay at least
#: this many times below batch's on the largest game.  Widened by
#: REPRO_BENCH_REGRESSION_FACTOR like the throughput gates (factor 2.0,
#: the default, keeps the full 2x target; factor 4.0 halves it).
RSS_RATIO_TARGET = 2.0

#: Screen of the two stream-driver probes.  The RSS ratio gauges the
#: frame trace a batch render holds and streaming never does; at the
#: small bench scale the largest game's trace is smaller than one
#: chunk's raster temporaries, which both drivers pay, so the probes
#: run where the trace dominates.
STREAM_PROBE_SCALE = "1024x512"

#: Streaming's end-to-end seconds must stay within this fraction of
#: batch's (same work, different interleaving), in the median of the
#: probe pairs' ratios.  Also widened by the regression factor.
TIME_TOLERANCE = 0.10


def bench_config(scale: Optional[str] = None) -> GPUConfig:
    """The bench screen: ``scale``, else ``REPRO_BENCH_SCALE``."""
    scale = scale or os.environ.get("REPRO_BENCH_SCALE", "small")
    if scale == "paper":
        return GPUConfig()
    if scale == "small":
        return GPUConfig(screen_width=512, screen_height=256)
    width, height = scale.lower().split("x")
    return GPUConfig(screen_width=int(width), screen_height=int(height))


def bench_games():
    games = os.environ.get("REPRO_BENCH_GAMES")
    if games:
        return [g.strip() for g in games.split(",")]
    return game_aliases()


def render_traces(config, games):
    """Time pass-1 for both render engines over prebuilt workloads.

    Workloads are built once up front so the timings are pure render.
    Returns ``(traces, render_s, render_section)``: the fast-engine
    traces (reused by the replay legs), the total fast-engine render
    seconds, and the per-game ``render`` section for the JSON output —
    including a per-game digest cross-check of the two engines.
    """
    workloads = {g: build_game(g, config) for g in games}
    renderers = {e: FrameRenderer(config, engine=e) for e in RENDER_ENGINES}
    seconds = {e: {} for e in RENDER_ENGINES}
    traces = {}
    digests_match = True
    for game in games:
        digests = {}
        for engine in RENDER_ENGINES:
            t0 = time.perf_counter()
            trace, _ = renderers[engine].render(workloads[game])
            seconds[engine][game] = time.perf_counter() - t0
            digests[engine] = trace_digest(trace)
            if engine == "fast":
                traces[game] = trace
        digests_match &= len(set(digests.values())) == 1
    fast_s = sum(seconds["fast"].values())
    reference_s = sum(seconds["reference"].values())
    total_quads = sum(t.total_quads for t in traces.values())
    section = {
        "per_game_seconds": {
            e: {g: round(s, 4) for g, s in per_game.items()}
            for e, per_game in seconds.items()
        },
        "fast_seconds": round(fast_s, 4),
        "reference_seconds": round(reference_s, 4),
        "quads_per_s": round(total_quads / fast_s, 1),
        "engine_speedup": round(reference_s / fast_s, 3),
        "digests_match": digests_match,
    }
    return traces, fast_s, section


def time_engines(config, traces, repeats: int) -> dict:
    """Best-of-``repeats`` seconds per engine to replay every pair.

    Repeats are interleaved across engines (fast, reference, fast, ...)
    so slow drift of the host — frequency scaling, noisy neighbours —
    hits both engines alike instead of biasing whichever ran last.
    Each timed repeat replays its own shallow copies of the traces,
    made before its clock starts: a copy starts with an empty schedule
    memo, so every timed fast replay runs its memory half instead of
    reusing the one an earlier repeat left on the trace.
    """
    replayers = {e: TraceReplayer(config, engine=e) for e in ENGINES}
    best = {e: float("inf") for e in ENGINES}
    for _ in range(repeats):
        for engine in ENGINES:
            replayer = replayers[engine]
            fresh = [copy.copy(trace) for trace in traces.values()]
            t0 = time.perf_counter()
            for trace in fresh:
                for design in DESIGNS:
                    replayer.run(trace, design)
            best[engine] = min(best[engine], time.perf_counter() - t0)
    return best


def time_sweep(config, games, jobs: int, store_dir) -> float:
    """Seconds for one small sweep grid over pre-rendered traces.

    Both the serial and the parallel leg load pass-1 from the same
    frame stores under ``store_dir``, so the comparison isolates the
    replay fan-out.  Each leg starts with no schedule record in them,
    so neither reuses a memory half the other computed.
    """
    sweep = DesignSweep(
        groupings=("FG-xshift2", "CG-square"),
        assignments=("const",),
        orders=("zorder",),
        decoupled=(True,),
    )
    for record in Path(store_dir).rglob("*.work"):
        record.unlink()
    runner = ExperimentRunner(config, games=list(games), store_dir=store_dir)
    t0 = time.perf_counter()
    sweep.run(runner, jobs=jobs)
    return time.perf_counter() - t0


def result_digest(result) -> str:
    """Stable cross-process fingerprint of one :class:`RunResult`.

    The drivers promise bit-identical results, so a canonical-JSON hash
    of the dataclass tree is enough — any float that differs in the
    last ulp changes the digest.
    """
    payload = json.dumps(
        dataclasses.asdict(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _self_peak_rss_kb() -> int:
    """This process's peak RSS in KiB.

    ``ru_maxrss`` survives fork+exec on Linux, so a probe spawned from
    the (by then large) bench process would inherit the parent's peak
    as its floor.  ``VmHWM`` tracks the *current* address space, which
    exec recreates, so it is read first; ``ru_maxrss`` is the fallback
    for hosts without procfs.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb // 1024 if sys.platform == "darwin" else kb


def run_probe(driver: str, game: str) -> int:
    """Child-process body: one render+replay under ``driver``.

    Prints a JSON record of seconds, peak RSS, and the result digest.
    The baseline snapshot (taken after imports and config setup) lets
    the parent report working-set *growth* rather than interpreter
    overhead.
    """
    config = bench_config(STREAM_PROBE_SCALE)
    baseline_kb = _self_peak_rss_kb()
    t0 = time.perf_counter()
    if driver == "batch":
        workload = build_game(game, config)
        trace, _ = FrameRenderer(config).render(workload)
        result = TraceReplayer(config).run(trace, DTEXL_BEST)
    else:
        runner = ExperimentRunner(config, games=[game], stream=driver)
        result = runner.run(game, DTEXL_BEST)
    seconds = time.perf_counter() - t0
    peak_kb = _self_peak_rss_kb()
    print(json.dumps({
        "seconds": round(seconds, 4),
        "peak_rss_kb": peak_kb,
        "baseline_rss_kb": baseline_kb,
        "delta_rss_kb": peak_kb - baseline_kb,
        "quads": result.total_quads,
        "digest": result_digest(result),
    }))
    return 0


def time_streams(games, traces, repeats: int) -> dict:
    """Per-driver memory/time profile on the largest suite game.

    One subprocess per driver and repeat: ``ru_maxrss`` never decreases
    within a process, so a second run measured in-process would inherit
    the first one's peak.  Each repeat is an adjacent (batch, streaming)
    pair, the first driver alternating between pairs, and the time
    ratio is the median of the pairs' ratios; each driver also reports
    its fastest run, as the engine timings do.  The largest game (by
    traced quads at the bench scale) is where the full-``FrameTrace``
    working set hurts most, hence where the bounded-memory claim is
    tested, at ``STREAM_PROBE_SCALE``.
    """
    largest = max(games, key=lambda g: traces[g].total_quads)
    runs = {driver: [] for driver in STREAM_DRIVERS}
    ratios = []
    for repeat in range(repeats):
        pair = {}
        for driver in STREAM_DRIVERS[::-1] if repeat % 2 else STREAM_DRIVERS:
            proc = subprocess.run(
                [sys.executable, __file__,
                 "--probe", driver, "--probe-game", largest],
                capture_output=True, text=True, check=True,
            )
            pair[driver] = json.loads(proc.stdout.splitlines()[-1])
            runs[driver].append(pair[driver])
        ratios.append(pair["streaming"]["seconds"] / pair["batch"]["seconds"])
    drivers = {
        driver: min(records, key=lambda record: record["seconds"])
        for driver, records in runs.items()
    }
    for driver, record in drivers.items():
        print(f"stream {driver:9s}: {record['seconds']:7.3f} s  "
              f"peak {record['peak_rss_kb'] / 1024:6.1f} MiB  "
              f"(+{record['delta_rss_kb'] / 1024:.1f} MiB)")
    batch, streaming = drivers["batch"], drivers["streaming"]
    digests = {r["digest"] for records in runs.values() for r in records}
    return {
        "scale": STREAM_PROBE_SCALE,
        "game": largest,
        "game_quads": batch["quads"],
        "drivers": drivers,
        "results_match": len(digests) == 1,
        "rss_ratio_batch_over_streaming": round(
            batch["delta_rss_kb"] / max(1, streaming["delta_rss_kb"]), 3
        ),
        "pair_time_ratios": [round(ratio, 3) for ratio in ratios],
        "time_ratio_streaming_over_batch": round(
            statistics.median(ratios), 3
        ),
    }


def run_bench() -> dict:
    config = bench_config()
    games = bench_games()
    repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
    cpu_count = os.cpu_count() or 1
    jobs_env = os.environ.get("REPRO_BENCH_JOBS")
    # Default jobs clamp to the host: oversubscribing a single CPU only
    # measures pool overhead.  An explicit REPRO_BENCH_JOBS still wins.
    jobs = int(jobs_env) if jobs_env else max(1, min(2, cpu_count))

    print(f"rendering {len(games)} traces at "
          f"{config.screen_width}x{config.screen_height} "
          f"(fast + reference engines) ...")
    traces, render_s, render_section = render_traces(config, games)
    print(f"render fast {render_section['fast_seconds']:.3f} s, reference "
          f"{render_section['reference_seconds']:.3f} s "
          f"({render_section['engine_speedup']:.2f}x, digests_match="
          f"{render_section['digests_match']})")
    replays = len(traces) * len(DESIGNS)
    total_quads = sum(t.total_quads for t in traces.values()) * len(DESIGNS)
    total_lines = (
        sum(t.total_texture_lines for t in traces.values()) * len(DESIGNS)
    )

    engines = {}
    for engine, seconds in time_engines(config, traces, repeats).items():
        engines[engine] = {
            "seconds": round(seconds, 4),
            "quads_per_s": round(total_quads / seconds, 1),
            "lines_per_s": round(total_lines / seconds, 1),
        }
        print(f"engine {engine:9s}: {seconds:7.3f} s  "
              f"({total_quads / seconds:,.0f} quads/s)")
    speedup = engines["reference"]["seconds"] / engines["fast"]["seconds"]
    print(f"fast-engine speedup: {speedup:.2f}x")

    store_dir = tempfile.mkdtemp(prefix="repro-bench-traces-")
    try:
        saver = ExperimentRunner(config, store_dir=store_dir)
        for alias in traces:
            saver.trace_for(alias)
        serial_s = time_sweep(config, games, 1, store_dir)
        if jobs > 1:
            parallel_s = time_sweep(config, games, jobs, store_dir)
        else:
            # A second serial run would only measure noise; on a
            # single-CPU host (or with REPRO_BENCH_JOBS=1) the
            # parallel leg degenerates to the serial one.
            print("jobs=1 (clamped to host CPUs): parallel leg skipped")
            parallel_s = serial_s
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    print(f"sweep serial {serial_s:.3f} s, jobs={jobs} {parallel_s:.3f} s")

    streaming = time_streams(games, traces, repeats)
    print(f"stream drivers: results_match={streaming['results_match']}, "
          f"batch/streaming RSS growth "
          f"{streaming['rss_ratio_batch_over_streaming']:.2f}x")

    return {
        "scale": f"{config.screen_width}x{config.screen_height}",
        "games": list(games),
        "repeats": repeats,
        # Numbers are only comparable on the same interpreter and host
        # class; stamp both so a diff of two BENCH files self-explains.
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": cpu_count,
        },
        "render_seconds": round(render_s, 4),
        "render": render_section,
        "replays_timed": replays,
        "total_quads": total_quads,
        "total_texture_lines": total_lines,
        "engines": engines,
        "fast_vs_reference_speedup": round(speedup, 3),
        "sweep": {
            "grid_points": 2,
            "serial_seconds": round(serial_s, 4),
            "jobs": jobs,
            "parallel_seconds": round(parallel_s, 4),
            "parallel_scaling": round(serial_s / parallel_s, 3),
        },
        "streaming": streaming,
    }


def check_regression(result: dict, baseline_path: Path) -> int:
    """Exit code 1 on a > ``REGRESSION_FACTOR`` throughput regression.

    Gates both the replay engine and the render front-end against the
    committed baseline, and fails outright if the render leg's
    fast-vs-reference digest cross-check diverged — a perf win that
    changes the trace is a correctness bug, not a speedup.
    """
    baseline = json.loads(baseline_path.read_text())
    failed = 0
    gates = [("replay", result["engines"]["fast"]["quads_per_s"],
              baseline["engines"]["fast"]["quads_per_s"])]
    if "render" in baseline:
        gates.append(("render", result["render"]["quads_per_s"],
                      baseline["render"]["quads_per_s"]))
    for name, measured, base_tp in gates:
        floor = base_tp / REGRESSION_FACTOR
        print(f"{name} regression gate: measured {measured:,.0f} quads/s "
              f"vs baseline {base_tp:,.0f} (floor {floor:,.0f})")
        if measured < floor:
            print(f"FAIL: fast {name} throughput regressed more than "
                  f"{REGRESSION_FACTOR}x vs {baseline_path}",
                  file=sys.stderr)
            failed = 1
    if not result["render"]["digests_match"]:
        print("FAIL: fast and reference render engines produced "
              "different trace digests", file=sys.stderr)
        failed = 1
    failed |= check_streaming(result)
    if not failed:
        print("regression gates passed")
    return failed


def check_streaming(result: dict) -> int:
    """Gate the stream drivers: equal results, bounded memory, no slowdown.

    Result equality is a hard failure — a driver that drifts is a
    correctness bug.  The RSS and time gates scale with
    ``REPRO_BENCH_REGRESSION_FACTOR`` (at the default 2.0 they demand
    the full 2x memory win and 10% time window; a noisy runner can
    widen both without editing the bench).
    """
    streaming = result.get("streaming")
    if not streaming:
        return 0
    failed = 0
    if not streaming["results_match"]:
        print("FAIL: stream drivers produced different RunResult digests",
              file=sys.stderr)
        failed = 1
    rss_floor = RSS_RATIO_TARGET * 2.0 / REGRESSION_FACTOR
    rss_ratio = streaming["rss_ratio_batch_over_streaming"]
    print(f"streaming RSS gate: batch/streaming growth {rss_ratio:.2f}x "
          f"(floor {rss_floor:.2f}x)")
    if rss_ratio < rss_floor:
        print(f"FAIL: streaming's peak-RSS growth is only {rss_ratio:.2f}x "
              f"below batch's (need {rss_floor:.2f}x)", file=sys.stderr)
        failed = 1
    time_ceiling = 1.0 + TIME_TOLERANCE * REGRESSION_FACTOR / 2.0
    time_ratio = streaming["time_ratio_streaming_over_batch"]
    print(f"streaming time gate: streaming/batch {time_ratio:.2f}x, the "
          f"median of pairs {streaming['pair_time_ratios']} "
          f"(ceiling {time_ceiling:.2f}x)")
    if time_ratio > time_ceiling:
        print(f"FAIL: streaming is {time_ratio:.2f}x batch's end-to-end "
              f"time (ceiling {time_ceiling:.2f}x)", file=sys.stderr)
        failed = 1
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", metavar="BASELINE.json", default=None,
        help="compare against a committed baseline and fail on a "
             f">{REGRESSION_FACTOR}x throughput regression",
    )
    parser.add_argument(
        "-o", "--output", default=str(REPO_ROOT / OUTPUT_NAME),
        help=f"output path (default: {OUTPUT_NAME} at the repo root)",
    )
    parser.add_argument(
        "--probe", choices=STREAM_DRIVERS, default=None,
        help="internal: run one driver's RSS/time probe and print JSON",
    )
    parser.add_argument(
        "--probe-game", default=None,
        help="game alias for --probe (required with it)",
    )
    args = parser.parse_args(argv)

    if args.probe:
        if not args.probe_game:
            parser.error("--probe requires --probe-game")
        return run_probe(args.probe, args.probe_game)

    result = run_bench()
    output = Path(args.output)
    output.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    if args.check:
        return check_regression(result, Path(args.check))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
