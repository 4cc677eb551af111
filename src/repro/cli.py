"""Command-line interface.

Subcommands::

    python -m repro info                      # list games / design points / orders
    python -m repro render GAME [-o out.ppm]  # functional render to an image
    python -m repro replay GAME [-d NAME ...] # replay design points, print table
    python -m repro suite [-d NAME ...]       # whole-suite comparison
    python -m repro sweep [--grouping ...]    # design-space grid, table or CSV
    python -m repro animate GAME [--frames N] # multi-frame warm-cache run
    python -m repro schedule [--grouping ...] # visualize a schedule as ASCII
    python -m repro check [--only GATE]       # static gates: lint, archcheck,
                                              # faultcheck and perfcheck
    python -m repro sanitize GAME [-d NAME]   # runtime invariant sanitizer
    python -m repro chaos [--trials N]        # fault-injection campaign

Common options: ``--screen WxH`` picks the simulated resolution
(default 512x256; ``--screen paper`` = the Table II 1960x768), and
``--json`` switches tabular output to JSON for scripting.

Exit codes: 0 for clean success, 1 for gate findings or invariant
violations, 3 for a partial sweep (some design points failed but the
campaign completed), 2 for a fatal error (also what argparse uses for
invalid arguments).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.tables import format_table
from repro.config import GPUConfig
from repro.core.dtexl import BASELINE, PAPER_CONFIGURATIONS, DTexLConfig
from repro.core.quad_grouping import GROUPINGS
from repro.core.subtile_assignment import ASSIGNMENTS
from repro.core.tile_order import TILE_ORDERS
from repro.errors import ConfigError, ReproError, UnknownWorkloadError
from repro.sim import ExperimentRunner, FrameRenderer, TraceReplayer
from repro.sim.stream import STREAM_DRIVERS
from repro.sim.export import run_result_to_dict, suite_result_to_dict
from repro.workloads import GAMES, build_game

#: Distinct exit codes for unattended campaign drivers.
EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_FATAL = 2
EXIT_PARTIAL = 3


def _parse_screen(value: str) -> GPUConfig:
    if value == "paper":
        return GPUConfig()
    try:
        width, height = value.lower().split("x")
        return GPUConfig(screen_width=int(width), screen_height=int(height))
    except (ValueError, TypeError) as error:
        # ArgumentTypeError messages are printed verbatim by argparse;
        # a plain ValueError's reason would be swallowed.
        raise argparse.ArgumentTypeError(
            f"invalid screen size {value!r} ({error}); "
            "expected WIDTHxHEIGHT or 'paper'"
        ) from error


def _games(value: Optional[str]) -> Optional[List[str]]:
    """Split and validate a ``--games A,B,...`` list."""
    if not value:
        return None
    aliases = [alias.strip() for alias in value.split(",") if alias.strip()]
    unknown = [alias for alias in aliases if alias not in GAMES]
    if unknown:
        raise UnknownWorkloadError(
            f"unknown game(s) {', '.join(map(repr, unknown))}; "
            f"choose from {', '.join(GAMES)}"
        )
    return aliases


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--screen", type=_parse_screen, default=_parse_screen("512x256"),
        metavar="WxH|paper", help="simulated screen size (default 512x256)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of a table"
    )


def _designs(names: Optional[List[str]]) -> List[DTexLConfig]:
    if not names:
        return [BASELINE, PAPER_CONFIGURATIONS["HLB-flp2"]]
    out = []
    for name in names:
        try:
            out.append(PAPER_CONFIGURATIONS[name])
        except KeyError:
            raise ConfigError(
                f"unknown design point {name!r}; see `python -m repro info`"
            ) from None
    return out


def cmd_info(_args) -> int:
    print("Games (Table I):")
    for alias, spec in GAMES.items():
        print(f"  {alias:4s} {spec.title} ({spec.scene_type}, "
              f"{spec.texture_footprint_mib} MiB)")
    print("\nDesign points (paper configurations):")
    for name, cfg in PAPER_CONFIGURATIONS.items():
        arch = "decoupled" if cfg.decoupled else "coupled"
        print(f"  {name:22s} {cfg.grouping:10s} {cfg.order:8s} "
              f"{cfg.assignment:6s} {arch}")
    print("\nQuad groupings:", ", ".join(sorted(GROUPINGS)))
    print("Tile orders:   ", ", ".join(sorted(TILE_ORDERS)))
    print("Assignments:   ", ", ".join(sorted(ASSIGNMENTS)))
    return 0


def cmd_render(args) -> int:
    config = args.screen
    workload = build_game(args.game, config)
    renderer = FrameRenderer(config)
    trace, framebuffer = renderer.render(workload, with_image=True)
    output = args.output or f"{args.game.lower()}_frame.ppm"
    with open(output, "wb") as handle:
        handle.write(framebuffer.to_ppm())
    stats = trace.stats
    print(
        f"wrote {output}: {stats.num_quads} quads, "
        f"overdraw {stats.overdraw_factor(config):.2f}, "
        f"Early-Z cull {stats.z_cull_rate:.0%}"
    )
    return 0


def _print_replay_profile(profiler, render_s: float, replay_s: float) -> None:
    """Per-phase wall times plus the hottest profile entries."""
    import pstats

    stats = pstats.Stats(profiler)
    # The pass-2 timing model, attributed from the profile: cumulative
    # time under RasterPipelineModel.simulate.
    timing_s = sum(
        ct
        for (filename, _line, name), (_cc, _nc, _tt, ct, _callers)
        in stats.stats.items()
        if name == "simulate" and "pipeline" in filename
    )
    print("\nprofile (phases)")
    print(f"  pass-1 render : {render_s:8.3f} s")
    print(f"  pass-2 replay : {replay_s:8.3f} s")
    print(f"    timing model: {timing_s:8.3f} s (within replay)")
    print("\nprofile (top functions by cumulative time)")
    stats.sort_stats("cumulative").print_stats(15)


def cmd_replay(args) -> int:
    config = args.screen
    designs = _designs(args.design)
    stream = getattr(args, "stream", "batch")
    profiling = getattr(args, "profile", False)
    if profiling:
        import time
        t0 = time.perf_counter()
    replayer = TraceReplayer(config)
    if stream == "batch":
        workload = build_game(args.game, config)
        trace, _ = FrameRenderer(config).render(workload)
    if profiling:
        import cProfile
        render_s = time.perf_counter() - t0
        profiler = cProfile.Profile()
        t1 = time.perf_counter()
        profiler.enable()
    if stream == "batch":
        results = [replayer.run(trace, design) for design in designs]
    else:
        # Streamed dataflows render inside the replay loop, so pass 1
        # is part of the profiled phase and each design point pays its
        # own (bounded-memory) render.
        runner = ExperimentRunner(config, games=[args.game], stream=stream)
        results = [runner.run(args.game, design) for design in designs]
    if profiling:
        profiler.disable()
        replay_s = time.perf_counter() - t1
        _print_replay_profile(profiler, render_s, replay_s)
    if args.json:
        import json
        print(json.dumps(
            [run_result_to_dict(r) for r in results], indent=2, sort_keys=True
        ))
        return 0
    base = results[0]
    rows = [
        [
            r.design_point, r.l2_accesses,
            r.l2_accesses / base.l2_accesses if base.l2_accesses else 0.0,
            r.frame_cycles, base.frame_cycles / r.frame_cycles,
            r.energy.total_mj,
        ]
        for r in results
    ]
    print(format_table(
        ["design point", "L2 accesses", "L2 norm.", "cycles",
         "speedup", "energy mJ"],
        rows,
        title=f"{args.game} at {config.screen_width}x{config.screen_height} "
              f"(speedup vs {base.design_point})",
    ))
    return 0


def cmd_suite(args) -> int:
    config = args.screen
    runner = ExperimentRunner(config, games=_games(args.games))
    designs = _designs(args.design)
    suites = [runner.run_suite(design) for design in designs]
    if args.json:
        import json
        print(json.dumps(
            [suite_result_to_dict(s) for s in suites], indent=2, sort_keys=True
        ))
        return 0
    base = suites[0]
    rows = [
        [
            suite.design_point,
            suite.total_l2_accesses,
            suite.mean_l2_decrease_vs(base),
            suite.mean_speedup_vs(base),
            suite.mean_energy_decrease_vs(base),
        ]
        for suite in suites
    ]
    print(format_table(
        ["design point", "L2 accesses", "L2 decrease %", "speedup",
         "energy decrease %"],
        rows,
        title=f"suite of {len(runner.games)} games vs {base.design_point}",
    ))
    return 0


def cmd_sweep(args) -> int:
    from repro.sim.resilience import ReplayBudget, RetryPolicy
    from repro.sim.sweep import DesignSweep, best_row, rows_to_csv

    if args.resume and not args.checkpoint_dir:
        raise ConfigError("--resume requires --checkpoint-dir")
    if args.max_retries < 0:
        raise ConfigError("--max-retries must be >= 0")
    if args.budget is not None and args.budget <= 0:
        raise ConfigError("--budget must be a positive quad count")
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    runner = ExperimentRunner(
        args.screen,
        games=_games(args.games),
        budget=ReplayBudget(max_quads=args.budget),
        stream=args.stream,
    )
    sweep = DesignSweep(
        groupings=args.grouping,
        assignments=args.assignment,
        orders=args.order,
        decoupled=[False, True] if args.both_architectures else [True],
    )
    report = sweep.run(
        runner,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        retry_policy=RetryPolicy(max_retries=args.max_retries),
        jobs=args.jobs,
        task_timeout_s=args.task_timeout,
    )
    exit_code = {"success": EXIT_OK, "partial": EXIT_PARTIAL}.get(
        report.outcome, EXIT_FATAL
    )
    for failure in report.failures:
        print(
            f"FAILED {failure.design_point}"
            + (f" on {failure.game}" if failure.game else "")
            + f": {failure.error_type}: {failure.message}"
            + (f" (after {failure.attempts} attempts)"
               if failure.attempts > 1 else ""),
            file=sys.stderr,
        )
    if args.csv:
        print(rows_to_csv(report.rows), end="")
        return exit_code
    print(format_table(
        ["grouping", "assignment", "order", "decoupled", "L2 norm.",
         "speedup", "imbalance", "energy dec %"],
        [
            [r.grouping, r.assignment, r.order, r.decoupled,
             r.l2_normalized, r.speedup, r.quad_imbalance,
             r.energy_decrease_pct]
            for r in report.rows
        ],
        title=f"design-space sweep over {len(runner.games)} games",
    ))
    if report.resumed:
        print(f"\nresumed {len(report.resumed)} completed design point(s) "
              "from checkpoint")
    winner = best_row(report.rows, "speedup")
    if winner is not None:
        print(f"\nbest by speedup: {winner.grouping}/{winner.assignment}/"
              f"{winner.order} "
              f"({'decoupled' if winner.decoupled else 'coupled'})"
              f" at {winner.speedup:.3f}x")
    if report.failures:
        print(f"\n{len(report.failures)} design point failure(s); "
              "see stderr for details")
    return exit_code


def cmd_chaos(args) -> int:
    from repro.sim.chaos import run_chaos
    from repro.sim.resilience import RetryPolicy

    report = run_chaos(
        trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
        config=args.screen,
        games=_games(args.games),
        task_timeout_s=args.task_timeout,
        retry_policy=RetryPolicy(max_retries=args.max_retries,
                                 seed=args.seed),
    )
    if args.json:
        import json
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return EXIT_OK if report.ok else EXIT_FINDINGS
    for trial in report.trials:
        status = "ok" if trial.ok else "DIVERGED"
        extras = []
        if trial.killed:
            extras.append("killed+resumed")
        if trial.fires:
            extras.append(f"{trial.fires} parent fire(s)")
        note = f" [{', '.join(extras)}]" if extras else ""
        print(f"trial {trial.index:3d} seed={trial.seed:<10d} "
              f"jobs={trial.jobs} {status:8s} {trial.plan}{note}")
        for problem in trial.problems:
            print(f"    {problem}", file=sys.stderr)
    verdict = ("all trials converged to the uninjected reference"
               if report.ok
               else f"{len(report.failed_trials)} trial(s) diverged")
    print(f"\nchaos: {len(report.trials)} trial(s), "
          f"{report.reference_rows} reference row(s), "
          f"{report.wall_time_s:.1f}s — {verdict}")
    return EXIT_OK if report.ok else EXIT_FINDINGS


def cmd_animate(args) -> int:
    from repro.sim.multiframe import AnimationSimulator
    from repro.workloads.animation import Animation

    animation = Animation.of_game(args.game, num_frames=args.frames)
    simulator = AnimationSimulator(args.screen)
    designs = _designs(args.design)
    results = [simulator.run(animation, design) for design in designs]
    rows = []
    for result in results:
        rows.append(
            [
                result.design_point,
                result.total_l2_accesses,
                sum(f.dram_accesses for f in result.frames),
                result.total_cycles,
                result.fps(args.screen.frequency_mhz),
                result.warmup_ratio(),
            ]
        )
    print(format_table(
        ["design point", "L2 accesses", "DRAM fills", "cycles",
         "FPS", "warm-up ratio"],
        rows,
        title=f"{args.frames}-frame animation of {args.game} "
              "(caches persist across frames)",
    ))
    return 0


def cmd_check(args) -> int:
    """Static-analysis gates: lint, archcheck, faultcheck and perfcheck.

    The gates run concurrently, one worker process each, and return
    plain data; this parent applies the baseline ratchet, writes the
    report and graph files, and prints one section per gate (or one
    JSON document) with one combined exit code.
    """
    import json
    from pathlib import Path

    from repro.analysis.arch.baseline import Baseline
    from repro.analysis.gates import GATES, GateOptions, run_gates

    baseline = Baseline.load(Path(args.baseline))
    # A misspelt baseline namespace would waive nothing and never go stale.
    unknown = sorted((set(args.only or ()) | set(baseline.gates)) - set(GATES))
    if unknown:
        raise ConfigError(f"unknown gate(s) {', '.join(unknown)}; "
                          f"choose from {', '.join(GATES)}")
    names = [name for name in GATES if not args.only or name in args.only]
    options = GateOptions(
        src=args.src, package=args.package, contract=args.contract,
        perf_contract=args.perf_contract, profile_json=args.profile_json,
    )
    reports = run_gates(
        names, options, baseline, update_baseline=args.update_baseline,
    )
    exits = {
        report.name: EXIT_OK if report.ok
        else EXIT_FATAL if report.run.error is not None
        else EXIT_FINDINGS
        for report in reports
    }
    clean = sum(code == EXIT_OK for code in exits.values())
    document = json.dumps({
        "gates": {
            report.name: {**report.as_dict(), "exit": exits[report.name]}
            for report in reports
        },
        "clean": clean,
        "total": len(reports),
    }, indent=2, sort_keys=True)
    if args.report:
        Path(args.report).write_text(document + "\n", encoding="utf-8")
    if args.graphs:
        graphs_dir = Path(args.graphs)
        graphs_dir.mkdir(parents=True, exist_ok=True)
        for report in reports:
            for name, text in report.run.graphs.items():
                (graphs_dir / name).write_text(text, encoding="utf-8")
    if args.format == "json":
        print(document)
    else:
        statuses = {EXIT_OK: "clean", EXIT_FINDINGS: "findings",
                    EXIT_FATAL: "fatal"}
        for report in reports:
            code = exits[report.name]
            print(f"== {report.name} ==\n{report.as_text(args.baseline)}")
            print(f"{report.name}: exit {code} ({statuses[code]})\n")
        if args.update_baseline:
            print(f"baseline rewritten: {args.baseline}")
        print(f"check: {clean}/{len(reports)} gates clean")
    return EXIT_OK if clean == len(reports) else EXIT_FINDINGS


def cmd_sanitize(args) -> int:
    from repro.analysis.lint import TraceSanitizer, trace_digest

    config = args.screen
    designs = _designs(args.design)
    workload = build_game(args.game, config)
    trace, _ = FrameRenderer(config).render(workload)
    digest = trace_digest(trace)
    replayer = TraceReplayer(config)
    sanitizer = TraceSanitizer(config)
    rows = []
    clean = True
    for design in designs:
        result = replayer.run(trace, design)
        violations = sanitizer.check(
            trace, result, design, expected_digest=digest
        )
        clean = clean and not violations
        rows.append({
            "design_point": design.name,
            "ok": not violations,
            "violations": [
                {"invariant": v.invariant, "message": v.message}
                for v in violations
            ],
        })
    if args.json:
        import json
        print(json.dumps(
            {"game": args.game, "trace_digest": digest, "designs": rows},
            indent=2, sort_keys=True,
        ))
    else:
        for row in rows:
            status = "OK" if row["ok"] else "VIOLATED"
            print(f"{row['design_point']:24s} {status}")
            for violation in row["violations"]:
                print(f"    [{violation['invariant']}] "
                      f"{violation['message']}")
        print(
            f"\nsanitized {len(rows)} design point(s) on {args.game}: "
            + ("all invariants hold" if clean else "invariants violated")
        )
    return EXIT_OK if clean else EXIT_FINDINGS


def cmd_schedule(args) -> int:
    from repro.analysis.visualize import render_schedule_ascii

    config = args.screen
    design = DTexLConfig(
        name="cli",
        grouping=args.grouping,
        assignment=args.assignment,
        order=args.order,
    )
    scheduler = design.build_scheduler(config)
    print(render_schedule_ascii(scheduler, max_tiles=args.tiles))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DTexL (MICRO 2022) reproduction — TBR GPU simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list games, design points and knobs")

    p_render = sub.add_parser("render", help="render a game frame to PPM")
    p_render.add_argument("game", choices=sorted(GAMES))
    p_render.add_argument("-o", "--output")
    _add_common(p_render)

    p_replay = sub.add_parser("replay", help="replay design points on one game")
    p_replay.add_argument("game", choices=sorted(GAMES))
    p_replay.add_argument(
        "-d", "--design", action="append", metavar="NAME",
        help="design point (repeatable; default: baseline + HLB-flp2)",
    )
    p_replay.add_argument(
        "--profile", action="store_true",
        help="print per-phase wall times (render / replay / timing "
             "model) and the hottest profile entries",
    )
    p_replay.add_argument(
        "--stream", choices=STREAM_DRIVERS, default="batch",
        help="tile dataflow: batch materializes the whole trace, "
             "streaming renders/replays/drops one tile group at a time "
             "(bounded memory); results are bit-identical across both",
    )
    _add_common(p_replay)

    p_suite = sub.add_parser("suite", help="whole-suite comparison")
    p_suite.add_argument(
        "-d", "--design", action="append", metavar="NAME",
        help="design point (repeatable; default: baseline + HLB-flp2)",
    )
    p_suite.add_argument(
        "--games", metavar="A,B,...", help="subset of game aliases"
    )
    _add_common(p_suite)

    p_sweep = sub.add_parser("sweep", help="evaluate a design-space grid")
    p_sweep.add_argument(
        "--grouping", nargs="+", default=["FG-xshift2", "CG-square"],
        choices=sorted(GROUPINGS),
    )
    p_sweep.add_argument(
        "--assignment", nargs="+", default=["const"],
        choices=sorted(ASSIGNMENTS),
    )
    p_sweep.add_argument(
        "--order", nargs="+", default=["zorder"], choices=sorted(TILE_ORDERS)
    )
    p_sweep.add_argument(
        "--both-architectures", action="store_true",
        help="sweep coupled AND decoupled (default: decoupled only)",
    )
    p_sweep.add_argument("--csv", action="store_true", help="emit CSV")
    p_sweep.add_argument("--games", metavar="A,B,...")
    p_sweep.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="persist traces, completed rows and a run manifest here",
    )
    p_sweep.add_argument(
        "--resume", action="store_true",
        help="reuse rows completed by a previous run of this campaign "
             "(requires --checkpoint-dir)",
    )
    p_sweep.add_argument(
        "--max-retries", type=int, default=0, metavar="N",
        help="re-attempts for failures flagged transient (default 0)",
    )
    p_sweep.add_argument(
        "--budget", type=int, default=None, metavar="QUADS",
        help="kill any replay that processes more than QUADS quads",
    )
    p_sweep.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the replay fan-out (default 1: "
             "serial; results are identical either way)",
    )
    p_sweep.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-task deadline for parallel workers: a task past it is "
             "killed and retried, then recorded as a failure (default: "
             "no deadline)",
    )
    p_sweep.add_argument(
        "--stream", choices=STREAM_DRIVERS, default="batch",
        help="tile dataflow for each replay (see `repro replay "
             "--help`); with --checkpoint-dir the streaming driver "
             "caches per-tile chunks so later design points skip the "
             "render; rows are bit-identical across drivers",
    )
    _add_common(p_sweep)

    p_anim = sub.add_parser("animate", help="multi-frame warm-cache run")
    p_anim.add_argument("game", choices=sorted(GAMES))
    p_anim.add_argument("--frames", type=int, default=4)
    p_anim.add_argument(
        "-d", "--design", action="append", metavar="NAME",
        help="design point (repeatable; default: baseline + HLB-flp2)",
    )
    _add_common(p_anim)

    p_check = sub.add_parser(
        "check",
        help="static-analysis gates: lint, archcheck, faultcheck and "
             "perfcheck, run concurrently",
    )
    p_check.add_argument(
        "--only", action="append", metavar="GATE",
        help="run only this gate: lint, archcheck, faultcheck or "
             "perfcheck (repeatable; default: all four)",
    )
    p_check.add_argument(
        "--src", default="src", metavar="DIR",
        help="source root to analyze (default: src)",
    )
    p_check.add_argument(
        "--package", default="repro", metavar="NAME",
        help="top-level package faultcheck analyzes under --src "
             "(default: repro)",
    )
    p_check.add_argument(
        "--contract", default="archcontract.toml", metavar="FILE",
        help="layer contract file (default: archcontract.toml)",
    )
    p_check.add_argument(
        "--perf-contract", default="perfcontract.toml", metavar="FILE",
        help="hot-path contract file (default: perfcontract.toml)",
    )
    p_check.add_argument(
        "--baseline", default="check-baseline.json", metavar="FILE",
        help="justified-waiver baseline, one namespace per gate "
             "(default: check-baseline.json)",
    )
    p_check.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format; json prints one document for all gates",
    )
    p_check.add_argument(
        "--report", metavar="FILE",
        help="also write the JSON document here (for CI artifacts)",
    )
    p_check.add_argument(
        "--graphs", metavar="DIR",
        help="write the layer graph (layers.dot, modules.json) and the "
             "hot-region graph (hotregion.dot) into DIR",
    )
    p_check.add_argument(
        "--profile-json", metavar="FILE",
        help="cross-check perfcheck's contract against a benchmark "
             "profile (e.g. BENCH_replay.json)",
    )
    p_check.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline namespaces of the gates run to their "
             "current findings (new entries get a TODO justification "
             "that still fails the gate)",
    )

    p_sanitize = sub.add_parser(
        "sanitize", help="replay a game and check pipeline invariants"
    )
    p_sanitize.add_argument("game", choices=sorted(GAMES))
    p_sanitize.add_argument(
        "-d", "--design", action="append", metavar="NAME",
        help="design point (repeatable; default: baseline + HLB-flp2)",
    )
    _add_common(p_sanitize)

    p_chaos = sub.add_parser(
        "chaos",
        help="randomized fault-injection campaign: inject, kill, resume, "
             "and diff against an uninjected reference",
    )
    p_chaos.add_argument(
        "--trials", type=int, default=20, metavar="N",
        help="number of randomized trials (default 20)",
    )
    p_chaos.add_argument(
        "--seed", type=int, default=0, metavar="SEED",
        help="campaign seed; same seed, same plans, same verdict "
             "(default 0)",
    )
    p_chaos.add_argument(
        "-j", "--jobs", type=int, default=2, metavar="N",
        help="max worker processes a trial may use; trials alternate "
             "between serial and parallel (default 2)",
    )
    p_chaos.add_argument(
        "--games", metavar="A,B,...",
        help="game aliases for the trial sweeps (default: SWa only)",
    )
    p_chaos.add_argument(
        "--task-timeout", type=float, default=5.0, metavar="SECONDS",
        help="per-task deadline used by the trial sweeps; injected "
             "hangs sleep past it on purpose (default 5)",
    )
    p_chaos.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="transient-failure retries granted to trial sweeps "
             "(default 2; 0 would make injected transients fatal)",
    )
    p_chaos.add_argument(
        "--screen", type=_parse_screen, default=_parse_screen("128x64"),
        metavar="WxH|paper",
        help="simulated screen size for trials (default 128x64: chaos "
             "exercises infrastructure, not the timing model)",
    )
    p_chaos.add_argument(
        "--json", action="store_true", help="emit JSON instead of a table"
    )

    p_sched = sub.add_parser("schedule", help="visualize a quad schedule")
    p_sched.add_argument("--grouping", default="CG-square",
                         choices=sorted(GROUPINGS))
    p_sched.add_argument("--assignment", default="flp2",
                         choices=sorted(ASSIGNMENTS))
    p_sched.add_argument("--order", default="hilbert",
                         choices=sorted(TILE_ORDERS))
    p_sched.add_argument("--tiles", type=int, default=8,
                         help="how many tiles of the traversal to show")
    _add_common(p_sched)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "info": cmd_info,
        "render": cmd_render,
        "replay": cmd_replay,
        "suite": cmd_suite,
        "sweep": cmd_sweep,
        "animate": cmd_animate,
        "schedule": cmd_schedule,
        "check": cmd_check,
        "sanitize": cmd_sanitize,
        "chaos": cmd_chaos,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        # Friendly one-liner instead of a traceback: bad names and bad
        # values are user input errors, not simulator crashes.
        print(f"error: {error}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
