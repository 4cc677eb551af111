"""Shader core (SC) timing: multithreaded warp execution.

Each quad is one warp.  An SC keeps up to ``max_warps`` warps in flight
and issues one instruction per cycle from any ready warp, so texture-miss
stalls of one warp are hidden by the compute of others — but only while
there are enough ready warps, which is exactly the occupancy effect the
paper leans on ("SC performance in TBR architectures is more susceptible
to memory latency due to periods of low occupancy", §V-C2).

The model is analytic per subtile.  With ``n`` warps of total compute
``C`` (issue cycles) and total stall ``S`` (miss cycles beyond the L1
hit latency), and ``h = min(max_warps, n)`` warps available to overlap
each other's misses::

    total = C + S / h

i.e. every miss cycle is hidden in proportion to the concurrency
actually available, but never below the additive floor — compute does
not overlap residual stall.  This is deliberately **conservative about
latency hiding** compared to an idealized round-robin machine (see
:mod:`repro.shader.cycle_model`, which bounds hiding from the other
side): real in-order mobile SCs lose issue slots to switch bubbles,
texture-unit occupancy and scoreboard stalls, and TBR barriers drain
the core at every (sub)tile boundary ("periods of low occupancy",
paper §V-C2).  An idealized max-form model (``max(C, S/h)``) predicts
*no* performance benefit from the paper's 47% L2-access cut, which
contradicts the cycle-accurate results the paper reports — so the
latency sensitivity retained here is itself part of reproducing TEAPOT.
The ``ablation_cycle_model`` bench quantifies where this model sits
between the idealized and fully-serial bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.config import ShaderConfig
from repro.errors import ConfigError


@dataclass(frozen=True)
class WarpCost:
    """Execution cost of one warp (quad)."""

    compute_cycles: int
    stall_cycles: int

    def __post_init__(self) -> None:
        if self.compute_cycles < 0 or self.stall_cycles < 0:
            raise ConfigError("cycle counts must be non-negative")


@dataclass(frozen=True)
class SubtileExecution:
    """Timing outcome of one subtile on one SC."""

    num_warps: int
    compute_cycles: int
    stall_cycles: int
    total_cycles: int


class ShaderCore:
    """Analytic multithreaded-execution model for one SC."""

    def __init__(self, config: ShaderConfig):
        self.config = config
        self.busy_cycles = 0
        self.issue_cycles = 0
        self.warps_executed = 0

    def execute_subtile(self, warps: Sequence[WarpCost]) -> SubtileExecution:
        """Cycles to drain one subtile's warps on this SC."""
        return self.execute_totals(
            len(warps),
            sum(w.compute_cycles for w in warps),
            sum(w.stall_cycles for w in warps),
        )

    def execute_totals(
        self, num_warps: int, compute: int, stall: int
    ) -> SubtileExecution:
        """Closed-form :meth:`execute_subtile` on subtile totals.

        The analytic model depends only on the warp count and the summed
        compute/stall cycles, so callers that already hold totals (the
        replay engine's :class:`~repro.raster.pipeline.SubtileWork`) skip
        materialising per-warp costs entirely.
        """
        if num_warps == 0:
            return SubtileExecution(0, 0, 0, 0)
        issue = -(-compute // self.config.issue_rate)
        overlap = min(self.config.max_warps, num_warps)
        total = issue + -(-stall // overlap)
        self.busy_cycles += total
        self.issue_cycles += issue
        self.warps_executed += num_warps
        return SubtileExecution(
            num_warps=num_warps,
            compute_cycles=issue,
            stall_cycles=stall,
            total_cycles=total,
        )

    def reset(self) -> None:
        self.busy_cycles = 0
        self.issue_cycles = 0
        self.warps_executed = 0
