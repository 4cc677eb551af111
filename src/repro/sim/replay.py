"""Pass 2: replay a frame trace under one DTexL design point.

A replay is two halves.

* **The memory half** (:meth:`TraceReplayer.replay_schedule`) walks the
  tiles in the design point's tile order, maps every quad to a shader
  core through the quad scheduler and drives the vertex prologue, the
  Parameter-Buffer fetches and the texture accesses through the
  private-L1/shared-L2 hierarchy and DRAM.  It returns a
  :class:`ScheduleWork`: quads, issue cycles and stall cycles per
  (tile, core), each tile's fetch cycles, the hierarchy's counter
  deltas and the L1 replication factor.
* **The timing half** (:meth:`TraceReplayer.time_schedule`) feeds that
  work to the coupled or decoupled pipeline timing model and the
  energy model, and assembles the :class:`RunResult`.

The memory half reads the trace, the schedule's tile order and its
per-step quad -> core tables, and the memory-side config: the tile
grid, the core count, the cache and DRAM configs, and the L2 hit
latency and ``shader.miss_overhead_cycles`` that price a stall.
:func:`memory_key` is a SHA-256 over exactly those, so it names what
the memory half computes rather than how the design point is spelled:
§III-D's flips collapse to ``const`` on fine-grained groupings, and
designs that differ only in their barriers share a key.  The barrier
architecture and the timing-side config (``fifo_depth``,
``flush_bytes_per_cycle``, ``shader.max_warps``, ``issue_rate``, the
clock, ...) reach only the timing half.  A cold-hierarchy, fast-engine
replay (:meth:`TraceReplayer.run_stream`) looks the memory half up
under its key before it opens a stream, in the lookup its caller hands
it or, for a :class:`BatchTileStream`, in the trace's
:attr:`~repro.sim.driver.FrameTrace.schedule_memo`, and stores it there
when it had to compute it.  So equal keys pay one memory pass per
lookup: per trace object for a plain replayer, per game and campaign
for an :class:`~repro.sim.experiment.ExperimentRunner`, whose lookup
also reads and writes the frame store's schedule records.
Warm-hierarchy replays (``AnimationSimulator``) and the reference
engine never read or write a lookup.

Two engines produce bit-identical :class:`RunResult` records:

* ``"fast"`` (default) — columnar and chunked: the memory hierarchy is
  replayed once per chunk of ``DEFAULT_GROUP_TILES`` consecutive tiles.
  The quad -> core schedule of a chunk is one gather through the
  stacked :meth:`~repro.core.scheduler.QuadScheduler.core_lut` rows,
  quad counts and issue cycles per (tile, core) are ``np.bincount``
  aggregates, and the L1s and the L2 each run as one set-grouped
  stream over the caches' recency lists
  (:func:`~repro.memory.cache.access_set_streams`).
* ``"reference"`` — the original per-line loop over scalar
  ``texture_access`` calls on the ``OrderedDict`` cache backend, tile
  by tile, kept as the executable specification for differential
  tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import List, Optional

import numpy as np

from repro.config import GPUConfig
from repro.core.dtexl import DTexLConfig
from repro.core.tile_order import TileCoord
from repro.errors import ConfigError, TraceIntegrityError
from repro.memory.cache import access_set_streams
from repro.memory.hierarchy import MemoryHierarchy
from repro.power.energy_model import EnergyBreakdown, EnergyModel
from repro.raster.pipeline import (
    FrameTiming,
    RasterPipelineModel,
    SubtileWork,
    TileWork,
)
from repro.sim.driver import DEFAULT_GROUP_TILES, FrameTrace
from repro.sim.resilience import ReplayBudget
from repro.sim.stream import BatchTileStream, TileWorkUnit  # noqa: F401 — re-exported for replay callers

#: Replay engine names accepted by :class:`TraceReplayer`.
ENGINES = ("fast", "reference")


def _chunks(units, size):
    """Group a tile stream into lists of ``size`` consecutive units.

    One list is refilled for every chunk, so a consumer done with a
    chunk holds none of its tiles while the stream produces the next:
    a streaming driver still holds at most one group of tiles.
    """
    chunk = []
    for unit in units:
        chunk.append(unit)
        if len(chunk) == size:
            yield chunk
            chunk.clear()
    if chunk:
        yield chunk


@lru_cache(maxsize=None)
def memory_key(design: DTexLConfig, config: GPUConfig) -> str:
    """Everything the memory half of a replay of ``design`` reads, hashed.

    A SHA-256 hex digest over the memory-side fields of the config the
    design point runs on (``design.effective_gpu_config(config)``): the
    screen and tile size that set the tile grid, the core count, the
    four cache configs and the DRAM config whole, and
    ``shader.miss_overhead_cycles``, which prices a stall together with
    the L2 hit latency; then the tile order and every step's
    :meth:`~repro.core.scheduler.QuadScheduler.core_lut` row at the
    effective core count.  Two designs whose schedules map every quad of
    every step to the same core get one key, whatever their grouping,
    assignment or barrier names, so replays that differ only there share
    one memory pass.  ``tests/test_replay.py`` sorts every config field
    into the memory or the timing side and fails on a field it has not
    been told about.  Computed once per ``(design, config)``.
    """
    gpu = design.effective_gpu_config(config)
    n_cores = gpu.num_shader_cores
    digest = hashlib.sha256(repr((
        gpu.screen_width, gpu.screen_height, gpu.tile_size, n_cores,
        gpu.vertex_cache, gpu.texture_cache, gpu.tile_cache, gpu.l2_cache,
        gpu.dram, gpu.shader.miss_overhead_cycles,
    )).encode("utf-8"))
    scheduler = design.build_scheduler(config)
    digest.update(np.array(scheduler.tiles, dtype="<i8").tobytes())
    for step in range(scheduler.num_steps):
        digest.update(scheduler.core_lut(step, n_cores).astype("<i8").tobytes())
    return digest.hexdigest()


@dataclass
class RunResult:
    """Everything the experiments read out of one replay."""

    design_point: str
    l2_accesses: int
    l2_misses: int
    dram_accesses: int
    l1_accesses: int
    l1_misses: int
    vertex_accesses: int
    tile_accesses: int
    total_quads: int
    timing: FrameTiming
    energy: EnergyBreakdown
    #: Per traversal step, quads executed per SC (Figs 1, 12, 15).
    per_tile_quad_counts: List[List[int]]
    l1_replication_factor: float = 1.0
    #: 64-byte lines streamed to the Frame Buffer by Color-Buffer flushes.
    framebuffer_write_lines: int = 0

    @property
    def frame_cycles(self) -> int:
        return self.timing.total_cycles

    def fps(self, frequency_mhz: int) -> float:
        return self.timing.fps(frequency_mhz)

    @property
    def l1_miss_rate(self) -> float:
        return self.l1_misses / self.l1_accesses if self.l1_accesses else 0.0


@dataclass(frozen=True)
class MemoryCounters:
    """Hierarchy access counters: a snapshot, or one replay's deltas."""

    l2_accesses: int
    l2_misses: int
    dram_accesses: int
    l1_accesses: int
    l1_misses: int
    vertex_accesses: int
    tile_accesses: int

    @staticmethod
    def of(hierarchy: MemoryHierarchy) -> "MemoryCounters":
        l1 = hierarchy.texture_l1_stats()
        return MemoryCounters(
            l2_accesses=hierarchy.l2_accesses,
            l2_misses=hierarchy.l2_misses,
            dram_accesses=hierarchy.dram_accesses,
            l1_accesses=l1.accesses,
            l1_misses=l1.misses,
            vertex_accesses=hierarchy.vertex_cache.stats.accesses,
            tile_accesses=hierarchy.tile_cache.stats.accesses,
        )

    def since(self, before: "MemoryCounters") -> "MemoryCounters":
        """The counts accumulated between ``before`` and this snapshot."""
        return MemoryCounters(*(
            getattr(self, f.name) - getattr(before, f.name)
            for f in fields(self)
        ))


#: Index-block words of a :class:`ScheduleWork` record: steps, cores,
#: the :class:`MemoryCounters` and the quad total.
_WORK_HEAD = 2 + len(fields(MemoryCounters)) + 1


@dataclass(frozen=True, eq=False)
class ScheduleWork:
    """The memory half of one replay: all the timing half reads.

    Per traversal step: the tile (``tiles[step]`` is its ``(x, y)``),
    its step and its Parameter-Buffer fetch cycles.  Per (step, core):
    quads, issue cycles and stall cycles.  Read-only int64 arrays,
    about 0.2 MiB at 1960x768, so a trace can keep one per memory key
    and a frame store one record per key (:meth:`to_bytes`).
    """

    tiles: np.ndarray
    steps: np.ndarray
    fetch_cycles: np.ndarray
    quads: np.ndarray
    compute_cycles: np.ndarray
    stall_cycles: np.ndarray
    #: The hierarchy's counter deltas over this replay.
    counters: MemoryCounters
    total_quads: int
    l1_replication_factor: float

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScheduleWork):
            return NotImplemented
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, np.ndarray):
                if not np.array_equal(mine, theirs):
                    return False
            elif mine != theirs:
                return False
        return True

    def to_bytes(self) -> bytes:
        """The record payload; equal works give equal bytes.

        An index block of little-endian int64 words (steps, cores, the
        seven counters, the quad total), the replication factor as one
        ``<f8``, then the six arrays as little-endian int64, row-major.
        """
        steps, cores = self.quads.shape
        counters = self.counters
        head = [steps, cores]
        head += [getattr(counters, f.name) for f in fields(counters)]
        head.append(self.total_quads)
        parts = [
            np.array(head, dtype="<i8").tobytes(),
            np.array([self.l1_replication_factor], dtype="<f8").tobytes(),
        ]
        parts += [
            column.astype("<i8").tobytes() for column in (
                self.tiles, self.steps, self.fetch_cycles,
                self.quads, self.compute_cycles, self.stall_cycles,
            )
        ]
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ScheduleWork":
        """The work a :meth:`to_bytes` payload holds, its arrays read-only
        views of ``data``.  Raises :class:`TraceIntegrityError` when the
        length disagrees with the index block."""
        if len(data) < (_WORK_HEAD + 1) * 8:
            raise TraceIntegrityError("schedule record has no index block")
        steps, cores, *counts, total_quads = np.frombuffer(
            data, "<i8", _WORK_HEAD
        ).tolist()
        if (
            steps < 0 or cores < 1
            or len(data) != (_WORK_HEAD + 1 + steps * (4 + 3 * cores)) * 8
        ):
            raise TraceIntegrityError(
                "schedule record length disagrees with its index block"
            )
        (replication,) = np.frombuffer(data, "<f8", 1, _WORK_HEAD * 8).tolist()
        columns = []
        offset = (_WORK_HEAD + 1) * 8
        for shape in (
            (steps, 2), (steps,), (steps,),
            (steps, cores), (steps, cores), (steps, cores),
        ):
            count = int(np.prod(shape))
            columns.append(
                np.frombuffer(data, "<i8", count, offset).reshape(shape)
            )
            offset += count * 8
        return cls(
            *columns,
            counters=MemoryCounters(*counts),
            total_quads=total_quads,
            l1_replication_factor=replication,
        )


class TraceReplayer:
    """Replays traces under arbitrary design points."""

    def __init__(
        self,
        config: GPUConfig,
        budget: Optional[ReplayBudget] = None,
        engine: str = "fast",
    ):
        if engine not in ENGINES:
            raise ConfigError(
                f"unknown replay engine {engine!r}; "
                f"choose from {', '.join(ENGINES)}"
            )
        self.config = config
        self.energy_model = EnergyModel()
        #: Optional work ceiling; a replay that exceeds it raises
        #: :class:`~repro.errors.BudgetExceededError` instead of running on.
        self.budget = budget or ReplayBudget()
        self.engine = engine

    def run(
        self,
        trace: FrameTrace,
        design: DTexLConfig,
        hierarchy: Optional[MemoryHierarchy] = None,
    ) -> RunResult:
        """Replay ``trace`` under ``design``; returns the full result.

        Passing an existing ``hierarchy`` replays the frame against warm
        caches (multi-frame animation); all reported counters are deltas
        for this frame only.

        A thin wrapper over :meth:`run_stream` with the batch driver —
        the materialized trace is just one way of feeding the tile
        stream, kept as the executable specification the streaming
        driver is differential-tested against.
        """
        return self.run_stream(
            BatchTileStream(trace), design, hierarchy=hierarchy
        )

    def run_stream(
        self,
        stream,
        design: DTexLConfig,
        hierarchy: Optional[MemoryHierarchy] = None,
        memo=None,
    ) -> RunResult:
        """Replay a tile stream under ``design``; returns the full result.

        The memory half (:meth:`replay_schedule`), then the timing half
        (:meth:`time_schedule`).  ``stream`` is a tile stream or a
        zero-argument callable that opens one; a callable is called only
        when the memory half must be computed.

        A cold-hierarchy, fast-engine replay first looks the memory half
        up under :func:`memory_key` in ``memo`` (any object with
        ``get(key)`` and item assignment) or, when none is given and
        ``stream`` is a :class:`BatchTileStream`, in its trace's
        ``schedule_memo``, and stores it there when it had to compute
        it.  A hit re-runs the per-tile quad-budget check over the
        running totals, so it raises the same
        :class:`~repro.errors.BudgetExceededError` the replay it
        replaces would have.  Warm-hierarchy and reference-engine
        replays never read or write a memo.
        """
        if hierarchy is not None or self.engine != "fast":
            memo = None
        elif memo is None and isinstance(stream, BatchTileStream):
            memo = stream.trace.schedule_memo
        work = None
        if memo is not None:
            key = memory_key(design, self.config)
            work = memo.get(key)
        if work is None:
            if callable(stream):
                stream = stream()
            work = self.replay_schedule(stream, design, hierarchy)
            if memo is not None:
                memo[key] = work
        else:
            check_quads = self.budget.check_quads
            for total in np.cumsum(work.quads.sum(axis=1)).tolist():
                check_quads(total, design.name)
        return self.time_schedule(work, design)

    def replay_schedule(
        self,
        stream,
        design: DTexLConfig,
        hierarchy: Optional[MemoryHierarchy] = None,
    ) -> ScheduleWork:
        """The memory half: ``stream`` through ``design``'s schedule.

        ``stream`` is any :mod:`repro.sim.stream` driver; it is opened
        with the design point's tile traversal, so producer and consumer
        walk the same order and the frame counters accumulate per tile
        exactly as the batch walk accumulated them.  The vertex
        prologue rides the first unit, preserving the batch replayer's
        access order bit for bit.  Units are replayed in chunks of
        ``DEFAULT_GROUP_TILES``; the fast engine simulates the memory
        hierarchy once per chunk, with per-tile results identical to a
        tile-by-tile walk.  The quad budget is checked after every tile.
        Without a ``hierarchy`` the caches start cold.
        """
        gpu = design.effective_gpu_config(self.config)
        fast = self.engine == "fast"
        if hierarchy is None:
            hierarchy = MemoryHierarchy(
                gpu, backend="fast" if fast else "reference"
            )
        before = MemoryCounters.of(hierarchy)
        # The scheduler always reasons over 4 subtile slots; the
        # upper-bound run folds them onto its single SC below.
        scheduler = design.build_scheduler(self.config)
        n_cores = gpu.num_shader_cores

        tiles: List[TileCoord] = []
        steps: List[int] = []
        fetch_cycles: List[int] = []
        chunk_work = []
        total_quads = 0
        process = self._tile_quads_fast if fast else self._tiles_reference
        # Hot loop: resolve attribute chains once, not per tile.
        check_quads = self.budget.check_quads
        units = stream.open(scheduler.tiles)
        for chunk in _chunks(units, DEFAULT_GROUP_TILES):
            chunk_work.append(
                process(chunk, scheduler, hierarchy, gpu, n_cores)
            )
            for unit in chunk:
                entry = unit.entry
                total_quads += len(entry.columns)
                tiles.append(unit.tile)
                steps.append(unit.step)
                fetch_cycles.append(entry.fetch_cycles)
                check_quads(total_quads, design.name)

        quads, compute, stalls = np.concatenate(chunk_work, axis=1)
        arrays = (
            np.array(tiles, dtype=np.int64).reshape(-1, 2),
            np.array(steps, dtype=np.int64),
            np.array(fetch_cycles, dtype=np.int64),
            quads, compute, stalls,
        )
        for array in arrays:
            array.flags.writeable = False
        return ScheduleWork(
            *arrays,
            counters=MemoryCounters.of(hierarchy).since(before),
            total_quads=total_quads,
            l1_replication_factor=hierarchy.replication_factor(),
        )

    def time_schedule(
        self, work: ScheduleWork, design: DTexLConfig
    ) -> RunResult:
        """The timing half: frame time, energy and the result record.

        Reads ``work``, the barrier architecture and the timing-side
        config, never the trace or the caches.  Every list in the
        result is built by this call, so results that share one
        :class:`ScheduleWork` share no mutable state.
        """
        gpu = design.effective_gpu_config(self.config)
        n_cores = work.quads.shape[1]
        subtiles = list(map(
            SubtileWork,
            work.quads.ravel().tolist(),
            work.compute_cycles.ravel().tolist(),
            work.stall_cycles.ravel().tolist(),
        ))
        tile_works = list(map(
            TileWork,
            map(tuple, work.tiles.tolist()),
            work.steps.tolist(),
            work.fetch_cycles.tolist(),
            [
                subtiles[i:i + n_cores]
                for i in range(0, len(subtiles), n_cores)
            ],
        ))
        pipeline = RasterPipelineModel(gpu, design.decoupled)
        timing = pipeline.simulate(tile_works)

        # Every tile's Color Buffer streams to the Frame Buffer once per
        # frame (64 B lines, schedule-independent write traffic).
        tile_bytes = (
            self.config.tile_size ** 2 * self.config.color_bytes_per_pixel
        )
        fb_lines = len(tile_works) * -(-tile_bytes // 64)

        counters = work.counters
        energy = self.energy_model.frame_energy(
            l1_accesses=counters.l1_accesses,
            l2_accesses=counters.l2_accesses,
            dram_accesses=counters.dram_accesses,
            vertex_accesses=counters.vertex_accesses,
            tile_accesses=counters.tile_accesses,
            sc_issue_cycles=sum(timing.sc_issue_cycles),
            quads_processed=work.total_quads,
            frame_cycles=timing.total_cycles,
            frequency_mhz=gpu.frequency_mhz,
            framebuffer_write_lines=fb_lines,
        )
        return RunResult(
            design_point=design.name,
            l2_accesses=counters.l2_accesses,
            l2_misses=counters.l2_misses,
            dram_accesses=counters.dram_accesses,
            l1_accesses=counters.l1_accesses,
            l1_misses=counters.l1_misses,
            vertex_accesses=counters.vertex_accesses,
            tile_accesses=counters.tile_accesses,
            total_quads=work.total_quads,
            timing=timing,
            energy=energy,
            per_tile_quad_counts=work.quads.tolist(),
            l1_replication_factor=work.l1_replication_factor,
            framebuffer_write_lines=fb_lines,
        )

    # -- per-chunk quad processing --------------------------------------------

    @staticmethod
    def _tile_quads_fast(units, scheduler, hierarchy, gpu, n_cores):
        """Columnar replay of one chunk of tiles: its per-(tile, core) work.

        The chunk's vertex prologue (first unit of a frame only) goes
        through the vertex cache first.  Then, per tile, the tile cache
        runs over the Parameter-Buffer fetch lines; its misses are
        collected for the L2, not sent yet.  The quad -> core map of the
        whole chunk is one gather through the stacked ``core_lut`` rows,
        and quads and issue cycles per (tile, core) cell are
        ``np.bincount`` aggregates — no per-quad Python.
        :meth:`_simulate_lines` then drives the texture lines and the
        fetch misses through the L1s, L2 and DRAM.  Returns one int64
        array of shape ``(3, tiles, n_cores)``: quads, issue cycles and
        stall cycles.
        """
        vertex_lines = units[0].vertex_lines
        if vertex_lines:
            hierarchy.vertex_access_lines(vertex_lines)
        side = scheduler.config.quads_per_tile_side
        core_lut = scheduler.core_lut
        fetch = hierarchy.tile_cache.access_lines
        luts = []
        streams = []
        fetch_missed: List[int] = []
        fetch_counts = []
        for unit in units:
            entry = unit.entry
            _, missed = fetch(entry.fetch_lines)
            fetch_missed += missed
            fetch_counts.append(len(missed))
            luts.append(core_lut(unit.step, n_cores))
            streams.append(entry.quad_stream(side))
        n_tiles = len(units)
        tile_ids = np.arange(n_tiles)
        quads = [len(stream.slot) for stream in streams]
        quad_tile = np.repeat(tile_ids, quads)
        slot = np.concatenate([stream.slot for stream in streams])
        cell = quad_tile * n_cores + np.stack(luts)[quad_tile, slot]
        n_cells = n_tiles * n_cores
        num_quads = np.bincount(cell, minlength=n_cells)
        # Float64 weights sum integers exactly far beyond any tile's
        # issue-cycle total (2**53).
        issue = np.concatenate([stream.issue for stream in streams])
        compute = np.bincount(
            cell, weights=issue, minlength=n_cells
        ).astype(np.int64)
        tile_lines = [unit.entry.columns.lines for unit in units]
        # Each tile's line -> quad column, offset to chunk quad indices.
        line_quad = np.concatenate([s.line_quad for s in streams])
        line_quad += np.repeat(
            np.cumsum(quads) - quads, [len(lines) for lines in tile_lines]
        )
        stalls = TraceReplayer._simulate_lines(
            np.concatenate(tile_lines),
            cell[line_quad],
            np.array(fetch_missed, dtype=np.int64),
            np.repeat(tile_ids, fetch_counts),
            hierarchy,
            gpu,
            n_cores,
            n_cells,
        )
        return np.stack((num_quads, compute, stalls)).reshape(
            3, n_tiles, n_cores
        )

    @staticmethod
    def _simulate_lines(
        lines, line_cell, fetch_lines, fetch_tile, hierarchy, gpu, n_cores,
        n_cells,
    ):
        """Drive one chunk's traffic through L1s, L2 and DRAM.

        ``lines`` is the chunk's texture line stream, tile after tile,
        and ``line_cell`` the (tile, core) cell issuing each line as
        ``tile * n_cores + core``; ``fetch_lines`` are the tile cache's
        misses with their tiles in ``fetch_tile``.  Returns the stall
        cycles of every cell.

        LRU sets are independent state machines, so
        :func:`~repro.memory.cache.access_set_streams` replays each
        set's accesses together, in stream order, with the same hits,
        misses, evictions and final recency order as the interleaved
        stream.  Each private L1 only sees its own core's lines, so the
        L1 sets of all cores run as one grouped stream.  The L2 sees,
        tile by tile, that tile's fetch misses and then its texture L1
        misses in stream order — the order of the per-tile hierarchy
        walk.  DRAM fills are vectorized; fetch misses count in the
        DRAM statistics but stall no core.
        """
        # Every L1 miss costs the L2 hit latency plus the NoC/replay
        # overhead; an L2 miss adds the DRAM fill on top.
        miss_cost = gpu.l2_cache.hit_latency + gpu.shader.miss_overhead_cycles
        l1s = hierarchy.texture_l1s
        l1_sets = []
        for l1 in l1s:
            sets, ways = l1.acquire_state()
            l1_sets += sets
        num_sets = len(sets)
        line_core = line_cell % n_cores
        missed, evicted = access_set_streams(
            l1_sets, ways, line_core * num_sets + lines % num_sets, lines
        )
        core_misses = np.bincount(line_core[missed], minlength=n_cores)
        stats = zip(
            l1s,
            (np.bincount(line_core, minlength=n_cores) - core_misses).tolist(),
            core_misses.tolist(),
            np.bincount(line_core[evicted], minlength=n_cores).tolist(),
        )
        for l1, hits, misses, evictions in stats:
            l1.release_state(hits, misses, evictions)
        miss_cell = line_cell[missed]
        stalls = np.bincount(miss_cell, minlength=n_cells) * miss_cost

        # The L2 stream, tile by tile: fetch misses, then texture misses
        # (stable sort over the tile; -1 marks a fetch miss's owner).
        order = np.argsort(
            np.concatenate((fetch_tile, miss_cell // n_cores)), kind="stable"
        )
        l2_lines = np.concatenate((fetch_lines, lines[missed]))[order]
        owner = np.concatenate(
            (np.full(len(fetch_lines), -1), miss_cell)
        )[order]
        l2 = hierarchy.l2
        sets, ways = l2.acquire_state()
        missed, evicted = access_set_streams(
            sets, ways, l2_lines % len(sets), l2_lines
        )
        l2.release_state(
            len(l2_lines) - len(missed), len(missed), len(evicted)
        )
        fills = hierarchy.dram.latencies(l2_lines[missed])
        dram_stats = hierarchy.dram.stats
        dram_stats.accesses += len(fills)
        dram_stats.total_latency += int(fills.sum())
        owner = owner[missed]
        texture = owner >= 0
        stalls += np.bincount(
            owner[texture], weights=fills[texture], minlength=n_cells
        ).astype(np.int64)
        return stalls

    @staticmethod
    def _tiles_reference(units, scheduler, hierarchy, gpu, n_cores):
        """The reference engine over a chunk, one tile after another.

        Returns the chunk's work in :meth:`_tile_quads_fast`'s layout.
        """
        done = []
        for unit in units:
            for line in unit.vertex_lines:
                hierarchy.vertex_access(line)
            entry = unit.entry
            for line in entry.fetch_lines:
                hierarchy.tile_access(line)
            done.append([
                (s.num_quads, s.compute_cycles, s.stall_cycles)
                for s in TraceReplayer._tile_quads_reference(
                    entry, scheduler, unit.step, hierarchy, gpu, n_cores
                )
            ])
        return np.array(done, dtype=np.int64).reshape(
            len(units), n_cores, 3
        ).transpose(2, 0, 1)

    @staticmethod
    def _tile_quads_reference(entry, scheduler, step, hierarchy, gpu, n_cores):
        """The original scalar per-line loop (executable specification)."""
        l1_hit_latency = gpu.texture_cache.hit_latency
        miss_overhead = gpu.shader.miss_overhead_cycles
        subtiles = [SubtileWork() for _ in range(n_cores)]
        perm = scheduler.permutation_at(step)
        slot_of = scheduler.slot_of
        for quad in entry.quads:
            core = perm[slot_of(quad.qx, quad.qy)] % n_cores
            stall = 0
            for line in quad.texture_lines:
                result = hierarchy.texture_access(core, line)
                if not result.l1_hit:
                    stall += result.latency - l1_hit_latency + miss_overhead
            subtiles[core].add_quad(quad.compute_cycles, stall)
        return subtiles
