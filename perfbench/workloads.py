"""The benchmark's four workloads.

Each workload drives the program only through its public entry points
(``FrameRenderer``, ``TraceReplayer.run``/``run_stream``,
``StreamingTileStream``, ``AnimationSimulator``, ``DesignSweep.run``)
on inputs generated from the benchmark seed, and checks its outputs.
One *cycle* is a fixed list of *units*; the runner repeats cycles to
fill the measurement time and keeps each unit's median time.

``--seed 0`` runs the Table I recipes unchanged.  Any other seed
replaces every recipe's ``seed`` with a value derived from it, so the
program only ever sees generated scenes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import multiprocessing
import os
import shutil
import tempfile
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from typing import Dict, List, NamedTuple

from repro.analysis.lint.sanitizer import TraceSanitizer
from repro.config import GPUConfig
from repro.core.dtexl import BASELINE, DTEXL_BEST, PAPER_CONFIGURATIONS
from repro.sim.checkpoint import TileChunkStore, trace_digest, trace_key
from repro.sim.driver import FrameRenderer
from repro.sim.experiment import CHUNK_SUBDIR, ExperimentRunner, SuiteResult
from repro.sim.multiframe import AnimationSimulator
from repro.sim.replay import TraceReplayer
from repro.sim.stream import StreamingTileStream
from repro.sim.sweep import TRACE_SUBDIR, DesignSweep
from repro.workloads.animation import Animation
from repro.workloads.games import GAMES, GameSpec

ROOT = Path(__file__).resolve().parents[1]


def _load_bench_replay():
    spec = importlib.util.spec_from_file_location(
        "bench_replay", ROOT / "benchmarks" / "perf" / "bench_replay.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_bench_replay = _load_bench_replay()
#: Canonical-JSON hash of a result dataclass (shared with bench_replay.py).
result_digest = _bench_replay.result_digest
#: This process's peak RSS in KiB (VmHWM; shared with bench_replay.py).
self_peak_rss_kb = _bench_replay._self_peak_rss_kb

#: Paper values the fidelity errors are measured against (§V).
PAPER_SPEEDUP = 1.2
PAPER_FG_DEC_SPEEDUP = 1.09
PAPER_L2_REDUCTION_PCT = 46.8
PAPER_ENERGY_REDUCTION_PCT = 6.3
FIDELITY_DESIGNS = ("baseline", "HLB-flp2", "FG-xshift2-decoupled")

SMALL = GPUConfig(screen_width=512, screen_height=256)
PAPER = GPUConfig()
SMOKE = GPUConfig(screen_width=128, screen_height=64)
SMOKE_GAMES = ("SWa", "GTr")


def seeded_specs(seed: int, aliases) -> Dict[str, GameSpec]:
    """The named games with every recipe seed derived from ``seed``."""
    specs = {}
    for alias in aliases:
        spec = GAMES[alias]
        if seed:
            digest = hashlib.sha256(f"{seed}:{alias}".encode()).digest()
            recipe = dataclasses.replace(
                spec.recipe, seed=int.from_bytes(digest[:6], "big")
            )
            spec = dataclasses.replace(spec, recipe=recipe)
        specs[alias] = spec
    return specs


class Unit(NamedTuple):
    """One timed unit of a cycle: its key, body seconds and quads."""

    key: str
    seconds: float
    quads: int


class Clock:
    """Body clock that excludes the benchmark's own checks."""

    def __init__(self):
        self.paused = 0.0
        self.tracer = None

    def now(self) -> float:
        return perf_counter() - self.paused

    @contextmanager
    def untimed(self):
        start = perf_counter()
        tracer = self.tracer
        with tracer.check_span() if tracer else nullcontext():
            yield
        self.paused += perf_counter() - start


class Workload:
    """Shared bookkeeping: operations, failures, digests."""

    name = ""

    def __init__(self, seed: int, smoke: bool, clock: Clock, work_dir: Path):
        self.seed = seed
        self.smoke = smoke
        self.clock = clock
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests: Dict[str, str] = {}
        self.fidelity: Dict[str, float] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def record_digest(self, key: str, digest: str) -> None:
        """Store an operation's digest; a repeat must reproduce it."""
        previous = self.digests.setdefault(key, digest)
        if previous != digest:
            self.fail(f"{key}: digest changed between cycles")

    def setup(self) -> None:
        """Build the seeded inputs and runner objects."""
        raise NotImplementedError

    def cycle(self) -> List[Unit]:
        """Run one cycle of units; checks run untimed."""
        raise NotImplementedError

    def check(self) -> None:
        """Untimed end-of-run checks."""


class SuiteSweep(Workload):
    name = "suite-sweep"

    def setup(self):
        self.config = SMOKE if self.smoke else SMALL
        self.specs = seeded_specs(
            self.seed, SMOKE_GAMES if self.smoke else list(GAMES)
        )
        names = FIDELITY_DESIGNS if self.smoke else list(PAPER_CONFIGURATIONS)
        self.designs = [PAPER_CONFIGURATIONS[n] for n in names]
        self.renderer = FrameRenderer(self.config)
        self.replayer = TraceReplayer(self.config)
        self.sanitizer = TraceSanitizer(self.config)
        self.kept: Dict[str, Dict[str, object]] = {
            name: {} for name in FIDELITY_DESIGNS
        }

    def cycle(self):
        clock = self.clock
        units = []
        for alias, spec in self.specs.items():
            start = clock.now()
            trace, _ = self.renderer.render(spec.recipe.build(self.config))
            results = [
                (design, self.replayer.run(trace, design))
                for design in self.designs
            ]
            seconds = clock.now() - start
            with clock.untimed():
                for design, result in results:
                    self.attempted += 1
                    for violation in self.sanitizer.check(
                        trace, result, design
                    ):
                        self.fail(f"{alias}/{design.name}: {violation}")
                    self.record_digest(
                        f"{alias}/{design.name}", result_digest(result)
                    )
                    if design.name in self.kept:
                        self.kept[design.name][alias] = result
            units.append(Unit(alias, seconds, trace.total_quads * len(results)))
        return units

    def check(self):
        suites = {
            name: SuiteResult(name, per_game=dict(per_game))
            for name, per_game in self.kept.items()
        }
        base = suites["baseline"]
        best = suites["HLB-flp2"]
        speedup = best.mean_speedup_vs(base)
        fg_dec = suites["FG-xshift2-decoupled"].mean_speedup_vs(base)
        l2 = best.mean_l2_decrease_vs(base)
        energy = best.mean_energy_decrease_vs(base)
        self.fidelity = {
            "speedup": speedup,
            "fg_dec_speedup": fg_dec,
            "l2_reduction_pct": l2,
            "energy_reduction_pct": energy,
            "paper_err.speedup": abs(speedup - PAPER_SPEEDUP) / PAPER_SPEEDUP,
            "paper_err.fg_dec_speedup":
                abs(fg_dec - PAPER_FG_DEC_SPEEDUP) / PAPER_FG_DEC_SPEEDUP,
            "paper_err.l2_reduction":
                abs(l2 - PAPER_L2_REDUCTION_PCT) / PAPER_L2_REDUCTION_PCT,
            "paper_err.energy_reduction":
                abs(energy - PAPER_ENERGY_REDUCTION_PCT)
                / PAPER_ENERGY_REDUCTION_PCT,
        }
        self._spot_check_reference()

    def _spot_check_reference(self):
        """Fast against reference engines, both passes, on one game."""
        alias = "SWa"
        workload = self.specs[alias].recipe.build(self.config)
        traces, results = {}, {}
        for engine in ("fast", "reference"):
            traces[engine], _ = FrameRenderer(
                self.config, engine=engine
            ).render(workload)
            results[engine] = TraceReplayer(self.config, engine=engine).run(
                traces[engine], DTEXL_BEST
            )
        if trace_digest(traces["fast"]) != trace_digest(traces["reference"]):
            self.fail(f"{alias}: fast and reference trace digests differ")
        if results["fast"] != results["reference"]:
            self.fail(f"{alias}: fast and reference RunResults differ")


class PaperFrame(Workload):
    name = "paper-frame"

    def setup(self):
        self.config = SMOKE if self.smoke else PAPER
        # Four games of similar cost at this resolution, so no single
        # scene dominates the sum (CCS alone would take 40% of it).
        self.specs = seeded_specs(
            self.seed,
            SMOKE_GAMES if self.smoke else ("GTr", "SWa", "DDS", "Snp"),
        )
        self.renderer = FrameRenderer(self.config)
        self.replayer = TraceReplayer(self.config)

    def cycle(self):
        clock = self.clock
        units = []
        for alias, spec in self.specs.items():
            start = clock.now()
            stream = StreamingTileStream(
                self.renderer, spec.recipe.build(self.config)
            )
            result = self.replayer.run_stream(stream, DTEXL_BEST)
            seconds = clock.now() - start
            with clock.untimed():
                self.attempted += 1
                self.record_digest(alias, result_digest(result))
                per_step = sum(map(sum, result.per_tile_quad_counts))
                if not (
                    stream.stats.num_quads == result.total_quads == per_step
                    and len(result.per_tile_quad_counts)
                    == self.config.num_tiles
                ):
                    self.fail(f"{alias}: streamed quads not conserved")
            units.append(Unit(alias, seconds, result.total_quads))
        return units


class _CheckedReplayer:
    """Replays like ``TraceReplayer.run``, then sanitizes the pair untimed."""

    def __init__(self, workload: "AnimationWorkload", alias: str):
        self._workload = workload
        self._alias = alias
        self._replayer = TraceReplayer(workload.config)
        self._sanitizer = TraceSanitizer(workload.config)
        self.frame = 0

    def run(self, trace, design, hierarchy=None):
        result = self._replayer.run(trace, design, hierarchy=hierarchy)
        workload = self._workload
        with workload.clock.untimed():
            key = f"{self._alias}/frame{self.frame}"
            workload.attempted += 1
            for violation in self._sanitizer.check(trace, result, design):
                workload.fail(f"{key}: {violation}")
            workload.record_digest(key, result_digest(result))
        self.frame += 1
        return result


class AnimationWorkload(Workload):
    name = "animation"

    def setup(self):
        self.config = SMOKE if self.smoke else SMALL
        # Every game, two frames each: the second frame replays against
        # the caches the first left warm.  Ten scenes keep the seed's
        # effect on throughput small.
        specs = seeded_specs(
            self.seed, SMOKE_GAMES if self.smoke else list(GAMES)
        )
        self.animations = {
            alias: Animation(recipe=spec.recipe, num_frames=2)
            for alias, spec in specs.items()
        }
        self.simulators = {}
        for alias in self.animations:
            simulator = AnimationSimulator(self.config)
            simulator.replayer = _CheckedReplayer(self, alias)
            self.simulators[alias] = simulator

    def cycle(self):
        clock = self.clock
        units = []
        for alias, animation in self.animations.items():
            simulator = self.simulators[alias]
            simulator.replayer.frame = 0
            start = clock.now()
            result = simulator.run(animation, BASELINE)
            seconds = clock.now() - start
            with clock.untimed():
                if len(result.frames) != animation.num_frames:
                    self.fail(f"{alias}: {len(result.frames)} frames returned")
            units.append(
                Unit(alias, seconds, sum(f.total_quads for f in result.frames))
            )
        return units


class Campaign(Workload):
    name = "campaign"

    def setup(self):
        self.config = SMOKE if self.smoke else SMALL
        specs = seeded_specs(
            self.seed, SMOKE_GAMES if self.smoke else list(GAMES)
        )
        # DesignSweep looks games up by alias, so seeded recipes are
        # registered under derived aliases (forked workers inherit them).
        self.aliases = {}
        for alias, spec in specs.items():
            if self.seed:
                derived = f"{alias}.s{self.seed}"
                GAMES[derived] = dataclasses.replace(spec, alias=derived)
                alias_run = derived
            else:
                alias_run = alias
            self.aliases[alias_run] = spec
        self.jobs = max(1, min(2, os.cpu_count() or 1))
        # The resumed grid contains the cold grid, so resume reuses it.
        groupings = ("FG-xshift2", "CG-square")
        orders = ("zorder", "hilbert")
        self.cold = DesignSweep(
            groupings=groupings, orders=orders[:1] if self.smoke else orders,
            decoupled=(True,),
        )
        self.full = DesignSweep(
            groupings=groupings if self.smoke else groupings + ("CG-yrect",),
            assignments=("const",) if self.smoke else ("const", "flp2"),
            orders=orders, decoupled=(True,),
        )
        self.chunk_digests: Dict[str, str] = {}

    def _runner(self) -> ExperimentRunner:
        return ExperimentRunner(
            self.config, games=list(self.aliases), stream="streaming"
        )

    def cycle(self):
        clock = self.clock
        checkpoint_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        try:
            start = clock.now()
            cold = self.cold.run(
                self._runner(), checkpoint_dir=checkpoint_dir, jobs=self.jobs
            )
            resumed = self.full.run(
                self._runner(), checkpoint_dir=checkpoint_dir, resume=True,
                jobs=self.jobs,
            )
            seconds = clock.now() - start
            with clock.untimed():
                _reap_children()
                quads = self._check_campaign(checkpoint_dir, cold, resumed)
        finally:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
        return [Unit("campaign", seconds, quads)]

    def _check_campaign(self, checkpoint_dir, cold, resumed) -> int:
        games = len(self.aliases)
        replays_per_game = 0
        for report in (cold, resumed):
            manifest = report.manifest
            ran = len(manifest.design_points_attempted) - len(
                manifest.design_points_resumed
            )
            # Every pending design point replays every game, plus the
            # baseline once per game.
            replays_per_game += ran + 1
            self.attempted += (ran + 1) * games
            for failure in report.failures:
                self.fail(f"{failure.design_point}/{failure.game}: "
                          f"{failure.error_type}: {failure.message}")
            for row in report.rows:
                key = (f"{row.grouping}/{row.assignment}/{row.order}/"
                       f"{'dec' if row.decoupled else 'cpl'}")
                self.record_digest(key, result_digest(row))
            tracer = self.clock.tracer
            if tracer is not None:
                phases = manifest.phase_seconds
                tracer.count("sweep.render", phases.get("render", 0.0))
                tracer.count("sweep.pool_startup",
                             phases.get("pool_startup", 0.0))
                tracer.count("sweep.replay", phases.get("replay", 0.0))
        cold_names = [p.name for p in self.cold.design_points()]
        if resumed.resumed != cold_names:
            self.fail(f"resume reused {resumed.resumed}, not {cold_names}")
        quads = 0
        store_root = checkpoint_dir / TRACE_SUBDIR / CHUNK_SUBDIR
        for alias, spec in self.aliases.items():
            key = trace_key(self.config, spec.recipe)
            meta = TileChunkStore(store_root / key, key).frame_meta()
            if meta is None:
                self.fail(f"{alias}: no sealed chunk-store frame")
                continue
            quads += meta["num_quads"] * replays_per_game
            previous = self.chunk_digests.setdefault(alias, meta["digest"])
            if previous != meta["digest"]:
                self.fail(f"{alias}: chunk-store digest changed")
        if self.clock.tracer is not None:
            self.clock.tracer.count("checkpoint.bytes_written", sum(
                path.stat().st_size
                for path in checkpoint_dir.rglob("*") if path.is_file()
            ))
        return quads

    def check(self):
        """Each chunk-store digest must equal suite-sweep's trace digest."""
        renderer = FrameRenderer(self.config)
        for alias, spec in self.aliases.items():
            trace, _ = renderer.render(spec.recipe.build(self.config))
            if trace_digest(trace) != self.chunk_digests.get(alias):
                self.fail(f"{alias}: chunk-store digest differs from the "
                          "batch render's trace digest")


def _reap_children() -> None:
    """Wait for every pool worker the sweep left behind."""
    for child in multiprocessing.active_children():
        child.join(timeout=10)


WORKLOADS = {
    cls.name: cls
    for cls in (SuiteSweep, PaperFrame, AnimationWorkload, Campaign)
}
