"""Runtime invariant sanitizer for trace/replay pairs.

``replint`` (the static half of this package) keeps hazards out of the
source; the :class:`TraceSanitizer` checks the *artifacts* — a
:class:`~repro.sim.driver.FrameTrace` and the
:class:`~repro.sim.replay.RunResult` replayed from it — against the
structural invariants the decoupled-pipeline methodology rests on:

* **trace integrity** — the trace itself satisfies pass 1's guarantees
  (full tile-grid coverage, quads filed under their own tiles, totals
  matching :class:`~repro.sim.driver.RenderStats`), via
  :func:`repro.sim.checkpoint.verify_trace`.
* **quad conservation** — every quad the trace holds is executed exactly
  once: per traversal step, the scheduler's per-SC counts sum to the
  tile's quad count, and the frame totals agree end to end.
* **cycle monotonicity** — cycle counts are non-negative, per-SC issue
  cycles never exceed busy cycles, and no SC is busy longer than the
  frame.
* **counter consistency** — across the
  :class:`~repro.memory.hierarchy.MemoryHierarchy` counters:
  ``l1_misses <= l1_accesses``, ``l2_misses <= l2_accesses``, every L2
  miss is exactly one DRAM fill, and texture L1 misses are a subset of
  L2 traffic.  Holds for cold caches and for warm-cache frame deltas
  alike, because every counter is monotonic.
* **barrier ordering** — along the per-tile stage-completion records of
  :class:`~repro.raster.pipeline.FrameTiming`: Early-Z completes before
  Fragment before Blending within a tile, each unit's chain is
  monotonic across tiles, and the frame ends exactly when the slowest
  chain drains.
* **checkpoint-hash agreement** — an optional expected digest (computed
  with :func:`trace_digest` when the trace was produced or checkpointed)
  still matches, so a trace mutated between pass 1 and pass 2 is caught
  even when the mutation keeps the structure plausible.

``check`` returns all violations; ``sanitize`` raises
:class:`~repro.errors.InvariantViolationError` naming the first violated
invariant and listing the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import GPUConfig
from repro.core.dtexl import DTexLConfig
from repro.errors import InvariantViolationError, TraceIntegrityError
from repro.sim.checkpoint import trace_digest, verify_trace  # noqa: F401 — trace_digest re-exported; it moved into sim so the tile-granular checkpoints can chain to it without an analysis import
from repro.sim.driver import FrameTrace
from repro.sim.replay import RunResult


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with a pointer to what broke."""

    invariant: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.message}"


class TraceSanitizer:
    """Checks a trace/replay pair against the pipeline's invariants."""

    def __init__(self, config: GPUConfig):
        self.config = config

    # -- individual invariant families ---------------------------------------

    def _check_trace(self, trace: FrameTrace) -> List[Violation]:
        try:
            verify_trace(trace)
        except TraceIntegrityError as error:
            return [Violation("trace-integrity", str(error))]
        return []

    def _check_quad_conservation(
        self, trace: FrameTrace, result: RunResult, design: DTexLConfig
    ) -> List[Violation]:
        violations: List[Violation] = []
        gpu = design.effective_gpu_config(self.config)
        scheduler = design.build_scheduler(self.config)
        counts = result.per_tile_quad_counts

        if result.total_quads != trace.total_quads:
            violations.append(Violation(
                "quad-conservation",
                f"replay executed {result.total_quads} quads but the "
                f"trace holds {trace.total_quads}",
            ))
        if len(counts) != scheduler.num_steps:
            violations.append(Violation(
                "quad-conservation",
                f"per_tile_quad_counts has {len(counts)} steps but the "
                f"{design.order!r} traversal has {scheduler.num_steps}",
            ))
            return violations  # per-step comparison is meaningless now
        for step, (tile, row) in enumerate(zip(scheduler.tiles, counts)):
            if len(row) != gpu.num_shader_cores:
                violations.append(Violation(
                    "quad-conservation",
                    f"step {step} (tile {tile}) reports {len(row)} SC "
                    f"slots; the configuration has "
                    f"{gpu.num_shader_cores}",
                ))
                continue
            if any(count < 0 for count in row):
                violations.append(Violation(
                    "quad-conservation",
                    f"step {step} (tile {tile}) has a negative per-SC "
                    f"quad count: {row}",
                ))
                continue
            entry = trace.tiles.get(tile)
            expected = len(entry.columns) if entry is not None else 0
            if sum(row) != expected:
                violations.append(Violation(
                    "quad-conservation",
                    f"step {step} (tile {tile}) executed {sum(row)} "
                    f"quads across SCs but the trace holds {expected}",
                ))
        return violations

    def _check_cycles(self, result: RunResult) -> List[Violation]:
        violations: List[Violation] = []
        timing = result.timing
        if timing.total_cycles < 0:
            violations.append(Violation(
                "cycle-monotonicity",
                f"negative frame cycle count {timing.total_cycles}",
            ))
        if timing.fetch_cycles_total < 0:
            violations.append(Violation(
                "cycle-monotonicity",
                f"negative total fetch cycles {timing.fetch_cycles_total}",
            ))
        for sc, (busy, issue) in enumerate(
            zip(timing.sc_busy_cycles, timing.sc_issue_cycles)
        ):
            if busy < 0 or issue < 0:
                violations.append(Violation(
                    "cycle-monotonicity",
                    f"SC{sc} reports negative cycles "
                    f"(busy={busy}, issue={issue})",
                ))
            elif issue > busy:
                violations.append(Violation(
                    "cycle-monotonicity",
                    f"SC{sc} issued for {issue} cycles but was only busy "
                    f"for {busy}",
                ))
            elif busy > timing.total_cycles:
                violations.append(Violation(
                    "cycle-monotonicity",
                    f"SC{sc} busy for {busy} cycles in a "
                    f"{timing.total_cycles}-cycle frame",
                ))
        for step, row in enumerate(timing.per_tile_sc_cycles):
            if any(cycles < 0 for cycles in row):
                violations.append(Violation(
                    "cycle-monotonicity",
                    f"tile step {step} has negative Fragment-stage "
                    f"cycles: {row}",
                ))
        return violations

    def _check_counters(self, result: RunResult) -> List[Violation]:
        violations: List[Violation] = []
        nonneg = [
            ("l1_accesses", result.l1_accesses),
            ("l1_misses", result.l1_misses),
            ("l2_accesses", result.l2_accesses),
            ("l2_misses", result.l2_misses),
            ("dram_accesses", result.dram_accesses),
            ("vertex_accesses", result.vertex_accesses),
            ("tile_accesses", result.tile_accesses),
            ("total_quads", result.total_quads),
            ("framebuffer_write_lines", result.framebuffer_write_lines),
        ]
        for name, value in nonneg:
            if value < 0:
                violations.append(Violation(
                    "counter-consistency", f"{name} is negative: {value}"
                ))
        if result.l1_misses > result.l1_accesses:
            violations.append(Violation(
                "counter-consistency",
                f"l1_misses ({result.l1_misses}) exceed l1_accesses "
                f"({result.l1_accesses})",
            ))
        if result.l2_misses > result.l2_accesses:
            violations.append(Violation(
                "counter-consistency",
                f"l2_misses ({result.l2_misses}) exceed l2_accesses "
                f"({result.l2_accesses})",
            ))
        if result.dram_accesses != result.l2_misses:
            violations.append(Violation(
                "counter-consistency",
                f"dram_accesses ({result.dram_accesses}) != l2_misses "
                f"({result.l2_misses}); every L2 miss is exactly one "
                "DRAM fill",
            ))
        if result.l1_misses > result.l2_accesses:
            violations.append(Violation(
                "counter-consistency",
                f"texture L1 misses ({result.l1_misses}) exceed total L2 "
                f"accesses ({result.l2_accesses}); L1 misses are a "
                "subset of L2 traffic",
            ))
        if result.l1_replication_factor < 1.0:
            violations.append(Violation(
                "counter-consistency",
                f"L1 replication factor {result.l1_replication_factor} "
                "< 1.0 (each resident line exists at least once)",
            ))
        for component, value in result.energy.components_mj.items():
            if value < 0:
                violations.append(Violation(
                    "counter-consistency",
                    f"negative energy component {component!r}: {value}",
                ))
        return violations

    def _check_barriers(self, result: RunResult) -> List[Violation]:
        violations: List[Violation] = []
        ends = result.timing.per_tile_stage_ends
        if not ends:
            return violations  # legacy results carry no stage records
        stage_names = ("Early-Z", "Fragment", "Blending")
        previous: Optional[List[List[int]]] = None
        for step, tile_ends in enumerate(ends):
            for unit in range(len(tile_ends[0])):
                chain = [tile_ends[s][unit] for s in range(3)]
                if any(value < 0 for value in chain):
                    violations.append(Violation(
                        "barrier-ordering",
                        f"step {step} unit {unit} has a negative stage "
                        f"completion time: {chain}",
                    ))
                    continue
                for s in range(2):
                    if chain[s] > chain[s + 1]:
                        violations.append(Violation(
                            "barrier-ordering",
                            f"step {step} unit {unit}: "
                            f"{stage_names[s]} completes at {chain[s]} "
                            f"after {stage_names[s + 1]} at "
                            f"{chain[s + 1]}",
                        ))
                if previous is not None:
                    for s in range(3):
                        if previous[s][unit] > tile_ends[s][unit]:
                            violations.append(Violation(
                                "barrier-ordering",
                                f"unit {unit} {stage_names[s]} chain "
                                f"runs backwards between steps "
                                f"{step - 1} and {step} "
                                f"({previous[s][unit]} -> "
                                f"{tile_ends[s][unit]})",
                            ))
            previous = tile_ends
        last_blend = max(ends[-1][2])
        if last_blend != result.timing.total_cycles:
            violations.append(Violation(
                "barrier-ordering",
                f"frame reports {result.timing.total_cycles} cycles but "
                f"the slowest Blending chain drains at {last_blend}",
            ))
        return violations

    def _check_digest(
        self, trace: FrameTrace, expected_digest: str
    ) -> List[Violation]:
        actual = trace_digest(trace)
        if actual != expected_digest:
            return [Violation(
                "checkpoint-hash",
                f"trace digest {actual[:16]}… does not match the "
                f"expected {expected_digest[:16]}… (trace mutated "
                "between checkpoint and replay)",
            )]
        return []

    # -- entry points --------------------------------------------------------

    def check(
        self,
        trace: FrameTrace,
        result: RunResult,
        design: DTexLConfig,
        expected_digest: Optional[str] = None,
    ) -> List[Violation]:
        """All violated invariants of a trace/replay pair (empty = sound)."""
        violations = self._check_trace(trace)
        violations.extend(self._check_quad_conservation(trace, result, design))
        violations.extend(self._check_cycles(result))
        violations.extend(self._check_counters(result))
        violations.extend(self._check_barriers(result))
        if expected_digest is not None:
            violations.extend(self._check_digest(trace, expected_digest))
        return violations

    def sanitize(
        self,
        trace: FrameTrace,
        result: RunResult,
        design: DTexLConfig,
        expected_digest: Optional[str] = None,
    ) -> None:
        """Raise :class:`InvariantViolationError` on any broken invariant."""
        violations = self.check(trace, result, design, expected_digest)
        if violations:
            detail = "; ".join(str(v) for v in violations)
            raise InvariantViolationError(
                f"replay of {result.design_point!r} violated "
                f"{len(violations)} pipeline invariant(s): {detail}",
                invariant=violations[0].invariant,
            )
