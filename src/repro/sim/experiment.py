"""Experiment orchestration: run design points over the benchmark suite.

The expensive functional render (pass 1) is cached per game, so sweeping
a dozen design points costs one render plus a dozen cheap replays per
game — the same economy the paper gets from trace-driven simulation.
A ``store_dir`` makes that cache durable: each game's frame is a
:class:`~repro.sim.checkpoint.TileChunkStore` of typed segments that
either stream driver reads through one
:class:`~repro.sim.stream.StreamingTileStream`, so a re-run (or a
crashed campaign's resume) loads verified frames from disk instead of
rendering again.  Replays share memory halves the same way: one per
game and :func:`~repro.sim.replay.memory_key`, kept in the runner and
as a schedule record in the game's frame store, so pool workers, both
drivers and resumes pay one memory pass per key.

:meth:`ExperimentRunner.run` is the only place a replay runs.  Every
task of a sweep (on the parent's runner, or on a pool worker's runner
over the campaign's store), :meth:`~ExperimentRunner.run_suite` and
``repro replay`` all call it, so one body fires the ``replay.run``
fault point and feeds
:meth:`~repro.sim.replay.TraceReplayer.run_stream` the game's tile
stream, whichever stream driver the runner was built with.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.stats import geometric_mean
from repro.config import GPUConfig, TEST_CONFIG
from repro.core.dtexl import BASELINE, DTexLConfig
from repro.core.tile_order import scanline_order
from repro.errors import ReplayError, TraceIntegrityError
from repro.sim.checkpoint import TileChunkStore, trace_key, verify_trace
from repro.sim.driver import FrameRenderer, FrameTrace, RenderStats
from repro.sim.faults import SITE_REPLAY, fault_point
from repro.sim.replay import RunResult, ScheduleWork, TraceReplayer
from repro.sim.stream import (
    BatchTileStream,
    StreamingTileStream,
    check_driver,
)
from repro.sim.resilience import FailureRecord, ReplayBudget
from repro.workloads.games import GAMES, build_game

#: Subdirectory of a runner's ``store_dir`` holding its segmented frames.
CHUNK_SUBDIR = "chunks"


@dataclass
class SuiteResult:
    """One design point's results over the whole suite.

    ``failures`` is populated only by the sweep's grid walk: it holds
    the design point's first failing game, after which the walk skips
    the point's remaining games.
    """

    design_point: str
    per_game: Dict[str, RunResult] = field(default_factory=dict)
    failures: List[FailureRecord] = field(default_factory=list)

    @property
    def total_l2_accesses(self) -> int:
        return sum(r.l2_accesses for r in self.per_game.values())

    def _baseline_run(self, baseline: "SuiteResult", game: str) -> RunResult:
        try:
            return baseline.per_game[game]
        except KeyError:
            raise ReplayError(
                f"cannot compare {self.design_point!r} against "
                f"{baseline.design_point!r}: baseline was not run over "
                f"game {game!r} (baseline games: "
                f"{sorted(baseline.per_game)})"
            ) from None

    def mean_speedup_vs(self, baseline: "SuiteResult") -> float:
        """Geometric-mean speedup over the suite against ``baseline``."""
        ratios = []
        for game, run in self.per_game.items():
            base = self._baseline_run(baseline, game)
            if run.frame_cycles == 0:
                raise ReplayError(
                    f"{self.design_point!r} reported zero frame cycles "
                    f"for game {game!r}; speedup is undefined"
                )
            ratios.append(base.frame_cycles / run.frame_cycles)
        if not ratios:
            raise ReplayError(
                f"{self.design_point!r} has no per-game results to "
                "compute a mean speedup from"
            )
        return geometric_mean(ratios)

    def mean_l2_decrease_vs(self, baseline: "SuiteResult") -> float:
        """Average percent decrease in L2 accesses vs ``baseline``."""
        decreases = []
        for game, run in self.per_game.items():
            base = self._baseline_run(baseline, game)
            if base.l2_accesses:
                decreases.append(
                    (base.l2_accesses - run.l2_accesses)
                    / base.l2_accesses * 100.0
                )
        return sum(decreases) / len(decreases) if decreases else 0.0

    def mean_energy_decrease_vs(self, baseline: "SuiteResult") -> float:
        """Average percent decrease in total GPU energy vs ``baseline``."""
        decreases = []
        for game, run in self.per_game.items():
            base = self._baseline_run(baseline, game)
            if base.energy.total_mj:
                decreases.append(
                    (base.energy.total_mj - run.energy.total_mj)
                    / base.energy.total_mj * 100.0
                )
        return sum(decreases) / len(decreases) if decreases else 0.0


class _ScheduleWorks:
    """One game's memory halves, as :meth:`TraceReplayer.run_stream`
    looks them up: the runner's in-memory layer first, then the frame
    store's schedule records.  A store hit joins the in-memory layer; a
    computed half joins both."""

    def __init__(self, store: Optional[TileChunkStore]):
        self.cached: Dict[str, ScheduleWork] = {}
        self.store = store

    def get(self, key: str) -> Optional[ScheduleWork]:
        work = self.cached.get(key)
        if work is None and self.store is not None:
            data = self.store.load_work(key)
            if data is not None:
                try:
                    work = self.cached[key] = ScheduleWork.from_bytes(data)
                except TraceIntegrityError:
                    return None
        return work

    def __setitem__(self, key: str, work: ScheduleWork) -> None:
        self.cached[key] = work
        if self.store is not None:
            self.store.save_work(key, work.to_bytes())


class ExperimentRunner:
    """Caches traces and replays design points over the suite.

    ``stream`` picks the render→replay dataflow: ``"batch"`` (default)
    materializes each game's :class:`FrameTrace` once and replays it
    per design point; ``"streaming"`` renders tiles on the fly and
    drops them after replay.  With a ``store_dir`` both keep each
    game's frame there as 16-tile segments, so later design points,
    later runners and the other driver still pay one render.  Both
    produce bit-identical :class:`RunResult`\\ s — the drivers change
    *when* memory and time are spent, never what is computed.
    """

    def __init__(
        self,
        config: GPUConfig = TEST_CONFIG,
        games: Optional[Iterable[str]] = None,
        store_dir: Optional[os.PathLike] = None,
        budget: Optional[ReplayBudget] = None,
        stream: str = "batch",
    ):
        self.config = config
        self.renderer = FrameRenderer(config)
        self.replayer = TraceReplayer(config, budget=budget)
        self.games: List[str] = list(games) if games is not None else list(GAMES)
        #: Root of the game frame stores, or ``None`` for no checkpoints.
        self.store_dir = None if store_dir is None else Path(store_dir)
        self.stream = check_driver(stream)
        self._traces: Dict[str, FrameTrace] = {}
        #: Per game, the memory halves this runner computed or loaded,
        #: by :func:`~repro.sim.replay.memory_key`.
        self._works: Dict[str, _ScheduleWorks] = {}
        #: Per game, its frame store (:meth:`chunk_store_for`).
        self._stores: Dict[str, Optional[TileChunkStore]] = {}
        #: Functional renders actually performed (checkpoint hits skip it);
        #: the probe the resume tests use to prove no trace was re-rendered.
        #: A traversal that rendered *any* tile (instead of loading every
        #: segment) counts as one render, under either driver.
        self.renders_performed = 0

    # -- pass 1 cache -----------------------------------------------------------

    def trace_for(self, alias: str) -> FrameTrace:
        """Return one game's frame trace, rendering only what is needed.

        The in-memory cache first; on a miss, one scanline traversal of
        the game's :class:`StreamingTileStream` (:meth:`_traversal`),
        every unit kept.  So under a sealed manifest the frame loads
        from its store and a lost segment re-renders alone, while an
        unsealed frame, or one with no store, renders whole (and is
        saved and sealed for the next reader of either driver).  The
        stats are the traversal's when it rendered every tile, else the
        seal's, and :func:`verify_trace` holds them to the tiles.
        """
        trace = self._traces.get(alias)
        if trace is not None:
            return trace
        config = self.config
        stream = self._traversal(alias)
        order = scanline_order(config.tiles_x, config.tiles_y)
        units = list(stream.open(order))
        stats = stream.stats
        if stats is None:  # it loaded a sealed segment
            stats = RenderStats(**stream.chunk_store.manifest()["stats"])
        trace = FrameTrace(
            config, units[0].vertex_lines,
            {unit.tile: unit.entry for unit in units}, stats,
        )
        verify_trace(trace)
        if stream.tiles_rendered:
            self.renders_performed += 1
        self._traces[alias] = trace
        return trace

    @contextmanager
    def storing_frames(self, store_dir: os.PathLike) -> Iterator[None]:
        """Inside the block, keep frames and schedule records under
        ``store_dir`` behind an empty trace cache and memory-half layer;
        the runner's own store and caches come back on the way out,
        returning or raising."""
        saved = self.store_dir, self._traces, self._works, self._stores
        self.store_dir = Path(store_dir)
        self._traces, self._works, self._stores = {}, {}, {}
        try:
            yield
        finally:
            self.store_dir, self._traces, self._works, self._stores = saved

    # -- tile streams -----------------------------------------------------------

    def chunk_store_for(self, alias: str) -> Optional[TileChunkStore]:
        """The game's frame store for both drivers, when checkpointing
        is on: ``<store_dir>/chunks/<trace key>/``, so frames of other
        configs or recipes never collide.  Built once per game and store
        root, since every replay consults it."""
        if alias not in self._stores:
            store = None
            if self.store_dir is not None and alias in GAMES:
                key = trace_key(self.config, GAMES[alias].recipe)
                store = TileChunkStore(
                    self.store_dir / CHUNK_SUBDIR / key, key
                )
            self._stores[alias] = store
        return self._stores[alias]

    def stream_for(
        self, alias: str
    ) -> Union[BatchTileStream, StreamingTileStream]:
        """One game's tile stream under this runner's driver.

        Batch walks the trace :meth:`trace_for` keeps; streaming
        renders tiles as the replay consumes them (:meth:`_traversal`).
        """
        if self.stream == "batch":
            return BatchTileStream(self.trace_for(alias))
        return self._traversal(alias)

    def _traversal(self, alias: str) -> StreamingTileStream:
        """A streamed traversal of the game's frame, through the game's
        chunk store when checkpointing is on.  It gets a function that
        builds the game's scene, not the scene: a traversal of a sealed
        frame never renders, so it never builds the game."""
        return StreamingTileStream(
            self.renderer, partial(build_game, alias, self.config),
            chunk_store=self.chunk_store_for(alias),
        )

    # -- pass 2 -----------------------------------------------------------------

    def run(self, alias: str, design: DTexLConfig) -> RunResult:
        """Replay one game under one design point.

        The one replay path: every sweep task (inline on this runner or
        on a pool worker's runner over the campaign's store),
        :meth:`run_suite` and ``repro replay`` all come through here, so
        the ``design/game``-keyed fault point fires identically whichever
        executor and stream driver runs the replay.

        The memory half is looked up before any stream opens: in this
        runner's memory, then in the game's frame store
        (:class:`_ScheduleWorks`).  The game's stream (:meth:`stream_for`)
        is opened only on a miss, so a hit replays only the timing half:
        it opens no segment, builds no scene and renders nothing.
        """
        fault_point(SITE_REPLAY, key=f"{design.name}/{alias}")
        opened = []

        def open_stream():
            opened.append(self.stream_for(alias))
            return opened[0]

        works = self._works.get(alias)
        if works is None:
            works = self._works[alias] = _ScheduleWorks(
                self.chunk_store_for(alias)
            )
        result = self.replayer.run_stream(open_stream, design, memo=works)
        if opened and opened[0].tiles_rendered:
            self.renders_performed += 1
        return result

    def run_suite(self, design: DTexLConfig) -> SuiteResult:
        """Replay every game of the suite under one design point.

        A plain loop: the first failing game's exception propagates.
        Fault isolation, retries and fail-fast are the sweep's
        (:class:`~repro.sim.sweep.DesignSweep`).
        """
        result = SuiteResult(design_point=design.name)
        for alias in self.games:
            result.per_game[alias] = self.run(alias, design)
        return result

    def run_baseline(self) -> SuiteResult:
        """The paper's baseline: FG-xshift2, Z-order, coupled barriers."""
        return self.run_suite(BASELINE)
