"""Raster-pipeline timing: coupled barriers vs the Decoupled-Barrier
architecture (paper §II-C, §III-E, Figures 4 and 10).

The back end of the Raster Pipeline has three stages — Early-Z, Fragment
and Blending — each with four parallel units (one per Z-/Color-Buffer
bank, i.e. one per subtile slot).  Quads stream between stages through
FIFO queues, so a stage may begin a tile as soon as the previous stage
has started producing it.

*Coupled* (baseline): a barrier per stage forces **all four units** of a
stage to finish tile ``t`` before any of them starts tile ``t+1``.  The
per-tile cost of a stage is therefore the **max** over its units, and
fast units idle ("each SC will have to wait until the last SC finishes
its subtile").

*Decoupled* (DTexL): per-bank Color-Buffer flush and per-unit barriers
let **each unit chain its own subtiles** independently; a unit's cost
accumulates as the **sum** over tiles, and the frame ends when the
slowest chain drains.  The Tile Fetcher still serialises tile starts,
and the per-unit input FIFOs bound the skew: the front end distributes
tile ``t``'s quads only once every unit has started tile
``t - fifo_depth`` (a full FIFO for one bank stalls the rasterizer and
therefore every bank's feed).

The recurrences used (per tile ``t``, stage ``s``, unit ``b``)::

    coupled:    start[t][s]    = max(end[t-1][s],     avail[t][s])
                end[t][s]      = start[t][s] + max_b(work[t][s][b])
    decoupled:  start[t][s][b] = max(end[t-1][s][b],  avail[t][s][b])
                end[t][s][b]   = start[t][s][b] + work[t][s][b]

where ``avail`` is when the upstream stage began producing the tile
(streaming through the FIFO, one-cycle forwarding), and a stage can never
finish before its input has finished.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.config import GPUConfig
from repro.core.tile_order import TileCoord
from repro.shader.shader_core import ShaderCore, WarpCost


@dataclass
class SubtileWork:
    """Work of one subtile (one unit/SC) for one tile."""

    num_quads: int = 0
    compute_cycles: int = 0
    stall_cycles: int = 0

    def add_quad(self, compute: int, stall: int) -> None:
        self.num_quads += 1
        self.compute_cycles += compute
        self.stall_cycles += stall

    def warp_costs(self) -> List[WarpCost]:
        """Uniform per-warp split (the replay keeps only totals)."""
        if self.num_quads == 0:
            return []
        base_c, extra_c = divmod(self.compute_cycles, self.num_quads)
        base_s, extra_s = divmod(self.stall_cycles, self.num_quads)
        return [
            WarpCost(
                base_c + (1 if i < extra_c else 0),
                base_s + (1 if i < extra_s else 0),
            )
            for i in range(self.num_quads)
        ]


@dataclass
class TileWork:
    """All per-tile inputs to the timing model."""

    tile: TileCoord
    step: int
    fetch_cycles: int
    subtiles: List[SubtileWork]


@dataclass
class FrameTiming:
    """Timing outcome of one frame under one pipeline configuration."""

    total_cycles: int
    sc_busy_cycles: List[int]
    #: Issue (dynamic-work) cycles per SC — what the energy model charges.
    sc_issue_cycles: List[int]
    #: Per tile, per SC: Fragment-stage cycles (feeds the Fig 14 violins).
    per_tile_sc_cycles: List[List[int]]
    fetch_cycles_total: int = 0
    #: Per tile, per stage (EZ, FRAG, BLEND), per unit: the cycle at
    #: which that unit completed the stage for that tile.  This is the
    #: barrier-ordering evidence the trace sanitizer audits: stage
    #: completions must be non-decreasing along each unit's chain and
    #: ordered EZ <= FRAG <= BLEND within a tile.
    per_tile_stage_ends: List[List[List[int]]] = field(default_factory=list)

    @property
    def sc_idle_cycles(self) -> List[int]:
        return [self.total_cycles - busy for busy in self.sc_busy_cycles]

    def fps(self, frequency_mhz: int) -> float:
        """Frames per second at the given clock."""
        if self.total_cycles == 0:
            return float("inf")
        return frequency_mhz * 1e6 / self.total_cycles


class RasterPipelineModel:
    """Evaluates frame time for coupled or decoupled barrier pipelines."""

    def __init__(self, config: GPUConfig, decoupled: bool):
        self.config = config
        self.decoupled = decoupled
        self.cores = [
            ShaderCore(config.shader) for _ in range(config.num_shader_cores)
        ]

    # -- stage-work helpers -----------------------------------------------------

    def _fragment_cycles(self, subtile: SubtileWork, core: ShaderCore) -> int:
        # execute_totals == execute_subtile(subtile.warp_costs()): the
        # uniform warp split sums back to exactly these totals.
        return core.execute_totals(
            subtile.num_quads,
            subtile.compute_cycles,
            subtile.stall_cycles,
        ).total_cycles

    def _fixed_stage_cycles(self, subtile: SubtileWork) -> int:
        """Early-Z / Blending unit time: fixed throughput per quad."""
        return -(-subtile.num_quads // self.config.stage_unit_quads_per_cycle)

    def _flush_cycles(self, whole_tile: bool) -> int:
        """Color Buffer flush time after Blending finishes a (sub)tile.

        Coupled: the whole tile's Color Buffer flushes before Blending
        may start the next tile.  Decoupled: each bank flushes its
        quarter independently (the per-bank Tile ID change of §III-E).
        """
        config = self.config
        pixels = config.tile_size * config.tile_size
        if not whole_tile:
            pixels //= config.num_shader_cores
        total_bytes = pixels * config.color_bytes_per_pixel
        return -(-total_bytes // config.flush_bytes_per_cycle)

    # -- the model ---------------------------------------------------------------

    def simulate(self, tiles: Sequence[TileWork]) -> FrameTiming:
        """Run the timing recurrence over a frame's tiles."""
        n_units = self.config.num_shader_cores
        for core in self.cores:
            core.reset()

        per_tile_sc: List[List[int]] = []
        per_tile_stage_ends: List[List[List[int]]] = []
        fetch_total = 0

        # Completion times; stage order: EZ(0), FRAG(1), BLEND(2).
        if self.decoupled:
            end = [[0] * n_units for _ in range(3)]
            frag_starts: List[List[int]] = []  # per tile, per unit
        else:
            end_stage = [0, 0, 0]
        fetch_end = 0
        last_end = 0

        # Hot loop: these depend only on the (frozen) config, so resolve
        # them once rather than per tile.
        fifo_depth = self.config.fifo_depth
        if self.decoupled:
            bank_flush = self._flush_cycles(whole_tile=False)
        else:
            tile_flush = self._flush_cycles(whole_tile=True)

        for tile_index, tile_work in enumerate(tiles):
            fetch_end += tile_work.fetch_cycles
            fetch_total += tile_work.fetch_cycles

            ez = [self._fixed_stage_cycles(s) for s in tile_work.subtiles]
            frag = [
                self._fragment_cycles(s, self.cores[b])
                for b, s in enumerate(tile_work.subtiles)
            ]
            blend = [self._fixed_stage_cycles(s) for s in tile_work.subtiles]
            per_tile_sc.append(frag)
            work = [ez, frag, blend]

            if self.decoupled:
                # FIFO skew bound: tile t's quads are distributed only
                # once every unit's Fragment stage has started consuming
                # tile t - fifo_depth (its FIFO slot is then freed).
                gate = 0
                if tile_index >= fifo_depth:
                    gate = max(frag_starts[tile_index - fifo_depth])
                tile_starts = [0] * n_units
                for b in range(n_units):
                    avail = max(fetch_end, gate)
                    for s in range(3):
                        begin = max(end[s][b], avail)
                        if s == 1:
                            tile_starts[b] = begin
                        finish = begin + work[s][b]
                        if s > 0:
                            # Cannot outrun the producing stage's last quad.
                            finish = max(finish, prev_finish + 1)
                        if s == 2:
                            # The bank flushes its own quarter before it
                            # may begin the next subtile.
                            finish += bank_flush
                        end[s][b] = finish
                        avail = begin + 1  # streaming through the FIFO
                        prev_finish = finish
                    last_end = max(last_end, end[2][b])
                frag_starts.append(tile_starts)
                per_tile_stage_ends.append([row[:] for row in end])
            else:
                avail = fetch_end
                for s in range(3):
                    begin = max(end_stage[s], avail)
                    finish = begin + max(work[s]) if work[s] else begin
                    if s > 0:
                        finish = max(finish, prev_finish + 1)
                    if s == 2:
                        # Whole-tile Color Buffer flush before the next
                        # tile may enter Blending.
                        finish += tile_flush
                    end_stage[s] = finish
                    avail = begin + 1
                    prev_finish = finish
                last_end = max(last_end, end_stage[2])
                # Coupled barriers synchronise all units per stage, so
                # every unit shares the stage's completion time.
                per_tile_stage_ends.append(
                    [[end_stage[s]] * n_units for s in range(3)]
                )

        return FrameTiming(
            total_cycles=last_end,
            sc_busy_cycles=[core.busy_cycles for core in self.cores],
            sc_issue_cycles=[core.issue_cycles for core in self.cores],
            per_tile_sc_cycles=per_tile_sc,
            fetch_cycles_total=fetch_total,
            per_tile_stage_ends=per_tile_stage_ends,
        )
