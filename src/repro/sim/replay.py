"""Pass 2: replay a frame trace under one DTexL design point.

The replay walks the tiles in the design point's tile order, maps every
quad to a shader core through the quad scheduler, drives the texture
accesses through the private-L1/shared-L2 hierarchy, and feeds the
resulting per-subtile costs to the coupled or decoupled pipeline timing
model and the energy model.

Two engines produce bit-identical :class:`RunResult` records:

* ``"fast"`` (default) — columnar: the per-tile quad -> core schedule
  is one gather through a precomputed
  :meth:`~repro.core.scheduler.QuadScheduler.core_lut` table, per-core
  quad counts and issue cycles are ``np.bincount`` aggregates, and the
  inlined L1/L2/DRAM loop runs per core over its own line stream.
* ``"reference"`` — the original per-line loop over scalar
  ``texture_access`` calls on the ``OrderedDict`` cache backend, kept
  as the executable specification for differential tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.config import GPUConfig
from repro.core.dtexl import DTexLConfig
from repro.errors import ConfigError
from repro.memory.hierarchy import MemoryHierarchy
from repro.power.energy_model import EnergyBreakdown, EnergyModel, EnergyParams
from repro.raster.pipeline import (
    FrameTiming,
    RasterPipelineModel,
    SubtileWork,
    TileWork,
)
from repro.sim.driver import FrameTrace
from repro.sim.resilience import ReplayBudget
from repro.sim.stream import BatchTileStream, TileWorkUnit  # noqa: F401 — re-exported for replay callers

#: Replay engine names accepted by :class:`TraceReplayer`.
ENGINES = ("fast", "reference")


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
        drivers are differential-tested against.
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
        exactly as the batch walk accumulated them.  The vertex/PB
        prologue rides the first unit, preserving the batch replayer's
        access order bit for bit.
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
        process = self._tile_quads_fast if fast else self._tile_quads_reference
        # Hot loop: resolve attribute chains once, not per tile.
        check_quads = self.budget.check_quads
        with stream.open(scheduler.tiles) as units:
            for unit in units:
                entry = unit.entry
                vertex_lines = unit.vertex_lines
                if fast:
                    if vertex_lines:
                        hierarchy.vertex_access_lines(vertex_lines)
                    hierarchy.tile_access_lines(entry.fetch_lines)
                else:
                    for line in vertex_lines:
                        hierarchy.vertex_access(line)
                    for line in entry.fetch_lines:
                        hierarchy.tile_access(line)
                step = unit.step
                subtiles, counts = process(
                    entry, scheduler, step, hierarchy, gpu, n_cores
                )
                total_quads += len(entry.columns)
                tile_works.append(
                    TileWork(
                        tile=unit.tile,
                        step=step,
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

    # -- per-tile quad processing ---------------------------------------------

    @staticmethod
    def _tile_quads_fast(entry, scheduler, step, hierarchy, gpu, n_cores):
        """Columnar quad stream of one tile: returns (subtiles, counts).

        The quad -> core map is one LUT gather and the per-core quad
        counts and issue cycles are ``np.bincount`` aggregates — no
        per-quad Python.  Each private L1 only ever sees its own core's
        lines, so every core's L1 runs over that core's line stream in
        stream order; the L1 misses, merged back into stream order, then
        drive the shared L2 and DRAM exactly as interleaved per-quad
        processing would.  Arithmetic is line-for-line the reference
        path's.
        """
        stream = entry.quad_stream(scheduler.config.quads_per_tile_side)
        core = scheduler.core_lut(step, n_cores)[stream.slot]
        num_quads = np.bincount(core, minlength=n_cores).tolist()
        # Float64 weights sum integers exactly far beyond any tile's
        # issue-cycle total (2**53).
        compute = np.bincount(
            core, weights=stream.issue, minlength=n_cores
        ).astype(np.int64).tolist()
        stalls = [0] * n_cores
        lines = entry.columns.lines
        if len(lines):
            TraceReplayer._simulate_lines(
                lines, core[stream.line_quad], hierarchy, gpu, n_cores, stalls
            )
        subtiles = [
            SubtileWork(num_quads[b], compute[b], stalls[b])
            for b in range(n_cores)
        ]
        return subtiles, num_quads

    @staticmethod
    def _simulate_lines(lines, line_core, hierarchy, gpu, n_cores, stalls):
        """Drive one tile's texture lines through L1s, L2 and DRAM.

        ``line_core`` names the core issuing each line; per-core stall
        cycles accumulate into ``stalls``.  The LRU bodies are
        ``Cache.access_lines`` inlined over exported per-L1 (and shared
        L2) state — one Python call per line is too expensive at trace
        scale — pinned bit-for-bit by the differential tests; the
        statistics flush once per tile.
        """
        # Every L1 miss costs the L2 hit latency plus the NoC/replay
        # overhead; an L2 miss adds the DRAM fill on top.
        miss_cost = gpu.l2_cache.hit_latency + gpu.shader.miss_overhead_cycles
        l1s = hierarchy.texture_l1s
        # Group the lines by core, each group in stream order.
        order = np.argsort(line_core, kind="stable")
        by_core = lines[order].tolist()
        core_lines = np.bincount(line_core, minlength=n_cores).tolist()
        missed: List[int] = []  # positions in ``by_core``
        start = 0
        for b in range(n_cores):
            stop = start + core_lines[b]
            if stop == start:
                continue
            l1 = l1s[b]
            index, ages, tags, num_sets, ways, tick = l1.acquire_state()
            first_miss = len(missed)
            evictions = 0
            # ``tick + origin`` is the current line's position in by_core.
            origin = start - tick - 1
            for line in by_core[start:stop]:
                tick += 1
                slot = index.get(line)
                if slot is not None:
                    ages[slot] = tick
                    continue
                missed.append(tick + origin)
                base = (line % num_sets) * ways
                victim = base
                victim_age = None
                for i in range(base, base + ways):
                    tag = tags[i]
                    if tag == -1:
                        victim = i
                        victim_age = None
                        break
                    age = ages[i]
                    if victim_age is None or age < victim_age:
                        victim_age = age
                        victim = i
                if victim_age is not None:
                    evictions += 1
                    del index[tags[victim]]
                tags[victim] = line
                ages[victim] = tick
                index[line] = victim
            n_miss = len(missed) - first_miss
            l1.release_state(tick, stop - start - n_miss, n_miss, evictions)
            stalls[b] += n_miss * miss_cost
            start = stop
        if not missed:
            return

        # Below the L1s: the shared L2 (same inlined LRU body) in stream
        # order, then DRAM's deterministic banded latency — the Knuth
        # multiplicative hash from DRAM.latency_for_line, same
        # arithmetic as texture_access_lines.
        positions = np.sort(order[missed])
        l2 = hierarchy.l2
        index, ages, tags, num_sets, ways, tick = l2.acquire_state()
        hits = misses = evictions = 0
        dram = hierarchy.dram
        dram_min = dram.config.min_latency
        dram_band = dram.config.max_latency - dram_min + 1
        dram_latency = 0
        for line, b in zip(
            lines[positions].tolist(), line_core[positions].tolist()
        ):
            tick += 1
            slot = index.get(line)
            if slot is not None:
                ages[slot] = tick
                hits += 1
                continue
            misses += 1
            base = (line % num_sets) * ways
            victim = base
            victim_age = None
            for i in range(base, base + ways):
                tag = tags[i]
                if tag == -1:
                    victim = i
                    victim_age = None
                    break
                age = ages[i]
                if victim_age is None or age < victim_age:
                    victim_age = age
                    victim = i
            if victim_age is not None:
                evictions += 1
                del index[tags[victim]]
            tags[victim] = line
            ages[victim] = tick
            index[line] = victim
            fill = dram_min + ((line * 2654435761) >> 7) % dram_band
            dram_latency += fill
            stalls[b] += fill
        l2.release_state(tick, hits, misses, evictions)
        dram.stats.accesses += misses
        dram.stats.total_latency += dram_latency

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
