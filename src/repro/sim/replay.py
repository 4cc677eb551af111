"""Pass 2: replay a frame trace under one DTexL design point.

The replay walks the tiles in the design point's tile order, maps every
quad to a shader core through the quad scheduler, drives the texture
accesses through the private-L1/shared-L2 hierarchy, and feeds the
resulting per-subtile costs to the coupled or decoupled pipeline timing
model and the energy model.

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

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.config import GPUConfig
from repro.core.dtexl import DTexLConfig
from repro.errors import ConfigError
from repro.memory.cache import access_set_streams
from repro.memory.hierarchy import MemoryHierarchy
from repro.power.energy_model import EnergyBreakdown, EnergyModel, EnergyParams
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
class _CounterSnapshot:
    """Hierarchy counters at one instant, for per-frame deltas."""

    l2_accesses: int
    l2_misses: int
    dram_accesses: int
    l1_accesses: int
    l1_misses: int
    vertex_accesses: int
    tile_accesses: int

    @staticmethod
    def of(hierarchy: MemoryHierarchy) -> "_CounterSnapshot":
        l1 = hierarchy.texture_l1_stats()
        return _CounterSnapshot(
            l2_accesses=hierarchy.l2_accesses,
            l2_misses=hierarchy.l2_misses,
            dram_accesses=hierarchy.dram_accesses,
            l1_accesses=l1.accesses,
            l1_misses=l1.misses,
            vertex_accesses=hierarchy.vertex_cache.stats.accesses,
            tile_accesses=hierarchy.tile_cache.stats.accesses,
        )


class TraceReplayer:
    """Replays traces under arbitrary design points."""

    def __init__(
        self,
        config: GPUConfig,
        energy_params: Optional[EnergyParams] = None,
        budget: Optional[ReplayBudget] = None,
        engine: str = "fast",
    ):
        if engine not in ENGINES:
            raise ConfigError(
                f"unknown replay engine {engine!r}; "
                f"choose from {', '.join(ENGINES)}"
            )
        self.config = config
        self.energy_model = EnergyModel(energy_params or EnergyParams())
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
    ) -> RunResult:
        """Replay a tile stream under ``design``; returns the full result.

        ``stream`` is any :mod:`repro.sim.stream` driver; it is opened
        with the design point's tile traversal, so producer and consumer
        walk the same order and the frame counters accumulate per tile
        exactly as the batch walk accumulated them.  The vertex
        prologue rides the first unit, preserving the batch replayer's
        access order bit for bit.  Units are replayed in chunks of
        ``DEFAULT_GROUP_TILES``; the fast engine simulates the memory
        hierarchy once per chunk, with per-tile results identical to a
        tile-by-tile walk.
        """
        gpu = design.effective_gpu_config(self.config)
        fast = self.engine == "fast"
        if hierarchy is None:
            hierarchy = MemoryHierarchy(
                gpu, backend="fast" if fast else "reference"
            )
        before = _CounterSnapshot.of(hierarchy)
        # The scheduler always reasons over 4 subtile slots; the
        # upper-bound run folds them onto its single SC below.
        scheduler = design.build_scheduler(self.config)
        n_cores = gpu.num_shader_cores

        tile_works: List[TileWork] = []
        per_tile_counts: List[List[int]] = []
        total_quads = 0
        process = self._tile_quads_fast if fast else self._tiles_reference
        # Hot loop: resolve attribute chains once, not per tile.
        check_quads = self.budget.check_quads
        units = stream.open(scheduler.tiles)
        for chunk in _chunks(units, DEFAULT_GROUP_TILES):
            done = process(chunk, scheduler, hierarchy, gpu, n_cores)
            for unit, (subtiles, counts) in zip(chunk, done):
                entry = unit.entry
                total_quads += len(entry.columns)
                tile_works.append(
                    TileWork(
                        tile=unit.tile,
                        step=unit.step,
                        fetch_cycles=entry.fetch_cycles,
                        subtiles=subtiles,
                    )
                )
                per_tile_counts.append(counts)
                check_quads(total_quads, design.name)

        replication = hierarchy.replication_factor()
        pipeline = RasterPipelineModel(gpu, design.decoupled)
        timing = pipeline.simulate(tile_works)
        self.budget.check_cycles(timing.total_cycles, design.name)

        # Every tile's Color Buffer streams to the Frame Buffer once per
        # frame (64 B lines, schedule-independent write traffic).
        tile_bytes = (
            self.config.tile_size ** 2 * self.config.color_bytes_per_pixel
        )
        fb_lines = len(tile_works) * -(-tile_bytes // 64)

        after = _CounterSnapshot.of(hierarchy)
        energy = self.energy_model.frame_energy(
            l1_accesses=after.l1_accesses - before.l1_accesses,
            l2_accesses=after.l2_accesses - before.l2_accesses,
            dram_accesses=after.dram_accesses - before.dram_accesses,
            vertex_accesses=after.vertex_accesses - before.vertex_accesses,
            tile_accesses=after.tile_accesses - before.tile_accesses,
            sc_issue_cycles=sum(timing.sc_issue_cycles),
            quads_processed=total_quads,
            frame_cycles=timing.total_cycles,
            frequency_mhz=gpu.frequency_mhz,
            framebuffer_write_lines=fb_lines,
        )
        return RunResult(
            design_point=design.name,
            l2_accesses=after.l2_accesses - before.l2_accesses,
            l2_misses=after.l2_misses - before.l2_misses,
            dram_accesses=after.dram_accesses - before.dram_accesses,
            l1_accesses=after.l1_accesses - before.l1_accesses,
            l1_misses=after.l1_misses - before.l1_misses,
            vertex_accesses=after.vertex_accesses - before.vertex_accesses,
            tile_accesses=after.tile_accesses - before.tile_accesses,
            total_quads=total_quads,
            timing=timing,
            energy=energy,
            per_tile_quad_counts=per_tile_counts,
            l1_replication_factor=replication,
            framebuffer_write_lines=fb_lines,
        )

    # -- per-chunk quad processing --------------------------------------------

    @staticmethod
    def _tile_quads_fast(units, scheduler, hierarchy, gpu, n_cores):
        """Columnar replay of one chunk of tiles: (subtiles, counts) per tile.

        The chunk's vertex prologue (first unit of a frame only) goes
        through the vertex cache first.  Then, per tile, the tile cache
        runs over the Parameter-Buffer fetch lines; its misses are
        collected for the L2, not sent yet.  The quad -> core map of the
        whole chunk is one gather through the stacked ``core_lut`` rows,
        and quads and issue cycles per (tile, core) cell are
        ``np.bincount`` aggregates — no per-quad Python.
        :meth:`_simulate_lines` then drives the texture lines and the
        fetch misses through the L1s, L2 and DRAM.
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
        num_quads = np.bincount(cell, minlength=n_cells).tolist()
        # Float64 weights sum integers exactly far beyond any tile's
        # issue-cycle total (2**53).
        issue = np.concatenate([stream.issue for stream in streams])
        compute = np.bincount(
            cell, weights=issue, minlength=n_cells
        ).astype(np.int64).tolist()
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
        ).tolist()
        works = list(map(SubtileWork, num_quads, compute, stalls))
        return [
            (works[i:i + n_cores], num_quads[i:i + n_cores])
            for i in range(0, n_cells, n_cores)
        ]

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
        """The reference engine over a chunk, one tile after another."""
        done = []
        for unit in units:
            for line in unit.vertex_lines:
                hierarchy.vertex_access(line)
            entry = unit.entry
            for line in entry.fetch_lines:
                hierarchy.tile_access(line)
            done.append(TraceReplayer._tile_quads_reference(
                entry, scheduler, unit.step, hierarchy, gpu, n_cores
            ))
        return done

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
        return subtiles, [s.num_quads for s in subtiles]
