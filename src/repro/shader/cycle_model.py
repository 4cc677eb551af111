"""Cycle-level shader-core model (validation reference).

An event-driven simulation of one SC draining one subtile: up to
``max_warps`` warps resident, a round-robin scheduler issuing one
instruction per cycle from the least-recently-issued ready warp, and
each warp alternating compute phases with memory stalls.

This is far slower than the analytic model of
:mod:`repro.shader.shader_core` but makes no closed-form assumptions, so
the test-suite and the ``ablation_cycle_model`` bench use it to check
that the analytic model tracks a faithful execution within a small
error across occupancy regimes.

Each warp's cost is expanded into an alternating schedule: its compute
cycles are split evenly around its texture stalls (a quad issues some
ALU work, waits on a miss, continues), which mirrors how the rasterizer
accounts quad costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.config import ShaderConfig
from repro.shader.shader_core import SubtileExecution, WarpCost


@dataclass
class _Warp:
    """Residency state of one warp during the cycle simulation."""

    segments: List[Tuple[int, int]]  # (compute_cycles, stall_cycles) pairs
    segment_index: int = 0
    compute_left: int = 0
    ready_at: int = 0

    def __post_init__(self) -> None:
        self.compute_left = self.segments[0][0] if self.segments else 0


def _expand(cost: WarpCost, pieces: int = 2) -> List[Tuple[int, int]]:
    """Split one warp's (compute, stall) into alternating segments."""
    pieces = max(1, min(pieces, cost.compute_cycles or 1))
    base_c, extra_c = divmod(cost.compute_cycles, pieces)
    base_s, extra_s = divmod(cost.stall_cycles, pieces)
    return [
        (
            base_c + (1 if i < extra_c else 0),
            base_s + (1 if i < extra_s else 0),
        )
        for i in range(pieces)
    ]


class CycleAccurateShaderCore:
    """Event-driven single-SC execution of a subtile's warps."""

    def __init__(self, config: ShaderConfig):
        self.config = config

    def execute_subtile(self, warps: Sequence[WarpCost]) -> SubtileExecution:
        """Simulate cycle by cycle; returns the same record type as the
        analytic model."""
        if not warps:
            return SubtileExecution(0, 0, 0, 0)

        pending: List[WarpCost] = list(warps)
        pending.reverse()  # pop() takes them in submission order
        resident: List[_Warp] = []
        cycle = 0
        issued = 0
        total_compute = sum(w.compute_cycles for w in warps)
        total_stall = sum(w.stall_cycles for w in warps)

        def refill() -> None:
            while len(resident) < self.config.max_warps and pending:
                resident.append(_Warp(_expand(pending.pop())))

        refill()
        rr_index = 0
        while resident:
            # Find a ready warp, round-robin from rr_index.
            issued_this_cycle = 0
            for probe in range(len(resident)):
                warp = resident[(rr_index + probe) % len(resident)]
                if warp.ready_at <= cycle and warp.compute_left > 0:
                    warp.compute_left -= 1
                    issued += 1
                    issued_this_cycle += 1
                    if warp.compute_left == 0:
                        # Segment compute done; enter its stall phase.
                        _, stall = warp.segments[warp.segment_index]
                        warp.segment_index += 1
                        if warp.segment_index < len(warp.segments):
                            warp.ready_at = cycle + 1 + stall
                            warp.compute_left = (
                                warp.segments[warp.segment_index][0]
                            )
                        else:
                            warp.ready_at = cycle + 1 + stall
                            warp.compute_left = -1  # draining final stall
                    rr_index = (rr_index + probe + 1) % len(resident)
                    if issued_this_cycle >= self.config.issue_rate:
                        break
            # Retire warps whose final stall has elapsed.
            still = []
            for warp in resident:
                finished = (
                    warp.compute_left == -1 and warp.ready_at <= cycle + 1
                )
                if not finished:
                    still.append(warp)
            if len(still) != len(resident):
                resident = still
                rr_index = 0
                refill()
            if issued_this_cycle == 0 and resident:
                # Nothing ready: fast-forward to the next wake-up.
                next_ready = min(w.ready_at for w in resident)
                cycle = max(cycle + 1, next_ready)
            else:
                cycle += 1

        return SubtileExecution(
            num_warps=len(warps),
            compute_cycles=-(-total_compute // self.config.issue_rate),
            stall_cycles=total_stall,
            total_cycles=cycle,
        )
