"""Fault isolation for long sweep campaigns.

A design-space campaign over ten games and dozens of design points runs
unattended for a long time; one bad design point (or one flaky layer
underneath it) must cost exactly that point, not the whole run.  This
module provides the pieces the sweep and suite runners share:

* :class:`FailureRecord` — the structured row a caught failure turns
  into (design point, game, exception type, message, attempts).
* :class:`RetryPolicy` — bounded retry of failures whose error is
  flagged ``transient`` (see :mod:`repro.errors`); deterministic
  failures are never retried.
* :class:`ReplayBudget` — a quad ceiling that converts a runaway
  replay into a :class:`~repro.errors.BudgetExceededError` instead of an
  unbounded hang.
* :class:`RunManifest` — the per-campaign summary (config hash, points
  attempted/succeeded/failed, wall time, outcome) archived as JSON next
  to the checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

from repro.errors import BudgetExceededError, is_transient

T = TypeVar("T")

#: Campaign outcomes recorded in the manifest / mapped to exit codes.
OUTCOME_SUCCESS = "success"
OUTCOME_PARTIAL = "partial"
OUTCOME_FATAL = "fatal"


@dataclass
class FailureRecord:
    """One isolated failure, as recorded in sweep reports and manifests."""

    design_point: str
    game: str  # "" when the failure is not attributable to one game
    error_type: str
    message: str
    attempts: int = 1

    @staticmethod
    def of(
        error: BaseException,
        design_point: str,
        game: str = "",
        attempts: int = 1,
    ) -> "FailureRecord":
        return FailureRecord(
            design_point=design_point,
            game=game,
            error_type=type(error).__name__,
            message=str(error),
            attempts=attempts,
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "design_point": self.design_point,
            "game": self.game,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
        }


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, immediate retry of transient failures.

    ``max_retries`` is the number of *re*-attempts after the first try;
    the default of 0 means fail on first error.  Only errors flagged
    transient (``error.transient``) are retried — retrying a
    deterministic crash wastes a campaign's wall time.
    """

    max_retries: int = 0

    def attempts_for(self, error: BaseException) -> int:
        """Total attempts allowed once ``error`` has been observed."""
        return 1 + (self.max_retries if is_transient(error) else 0)


def run_guarded(
    fn: Callable[[], T],
    *,
    design_point: str,
    game: str = "",
    policy: Optional[RetryPolicy] = None,
) -> Tuple[Optional[T], Optional[FailureRecord]]:
    """Run ``fn`` inside an error boundary.

    Returns ``(result, None)`` on success or ``(None, failure)`` once
    the retry budget is exhausted.  ``KeyboardInterrupt``/``SystemExit``
    propagate — a campaign must still be killable.
    """
    policy = policy or RetryPolicy()
    attempt = 0
    while True:
        attempt += 1
        try:
            return fn(), None
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as error:
            if attempt < policy.attempts_for(error):
                continue
            return None, FailureRecord.of(
                error, design_point, game, attempts=attempt
            )


@dataclass(frozen=True)
class ReplayBudget:
    """Hard ceiling on one replay's work.

    ``None`` disables the ceiling.  It is checked while the replay walks
    the trace, so a pathological trace dies early.
    """

    max_quads: Optional[int] = None

    def check_quads(self, quads: int, design_point: str) -> None:
        if self.max_quads is not None and quads > self.max_quads:
            raise BudgetExceededError(
                f"replay of {design_point!r} exceeded the quad budget: "
                f"{quads} > {self.max_quads}"
            )


@dataclass
class RunManifest:
    """Per-campaign summary, archived as JSON by the sweep driver."""

    config_hash: str
    games: List[str] = field(default_factory=list)
    design_points_attempted: List[str] = field(default_factory=list)
    design_points_succeeded: List[str] = field(default_factory=list)
    design_points_failed: List[str] = field(default_factory=list)
    design_points_resumed: List[str] = field(default_factory=list)
    failures: List[FailureRecord] = field(default_factory=list)
    wall_time_s: float = 0.0
    #: Wall seconds per campaign phase: every campaign that replays
    #: stamps ``replay`` (renders included, under either executor) and
    #: pool campaigns stamp ``pool_startup`` before it, so a slow
    #: campaign can be attributed to executor spin-up or the replays
    #: themselves straight from the archived manifest.
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def outcome(self) -> str:
        if not self.design_points_failed:
            return OUTCOME_SUCCESS
        if self.design_points_succeeded or self.design_points_resumed:
            return OUTCOME_PARTIAL
        return OUTCOME_FATAL

    def as_dict(self) -> Dict[str, Any]:
        return {
            "config_hash": self.config_hash,
            "games": list(self.games),
            "design_points_attempted": list(self.design_points_attempted),
            "design_points_succeeded": list(self.design_points_succeeded),
            "design_points_failed": list(self.design_points_failed),
            "design_points_resumed": list(self.design_points_resumed),
            "failures": [f.as_dict() for f in self.failures],
            "wall_time_s": self.wall_time_s,
            "phase_seconds": dict(self.phase_seconds),
            "outcome": self.outcome,
        }
