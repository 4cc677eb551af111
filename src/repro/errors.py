"""Typed error taxonomy of the simulator.

Every failure the harness can isolate, retry or report derives from
:class:`ReproError`, so callers never have to catch bare ``ValueError``/
``KeyError`` and guess whether the problem was an invalid configuration,
a broken workload, a corrupted cached trace or a runaway replay.

The hierarchy::

    ReproError
    ├── ConfigError            invalid GPU / design-point parameters
    │   └── UnknownNameError       a registry lookup (grouping / tile
    │                              order / assignment) that does not exist
    ├── WorkloadError          a scene or recipe cannot be built
    │   └── UnknownWorkloadError   a game alias that does not exist
    ├── AnalysisError          a metric cannot be computed from the
    │                          given results (empty/degenerate inputs)
    ├── CheckpointError        a checkpoint-store operation failed; the
    │   │                      sweep treats it as a cache miss (re-render)
    │   └── TraceIntegrityError    a checkpointed trace failed verification
    ├── InvariantViolationError  a pipeline invariant broke mid-flight
    │                            (quad conservation, counter consistency,
    │                            barrier ordering — see the sanitizer)
    ├── WorkerCrashError       a sweep worker process died (transient:
    │                          the respawned pool may succeed)
    ├── TaskTimeoutError       a sweep task blew its per-task deadline
    │                          (transient: the retried task may finish)
    └── ReplayError            pass 2 cannot produce a result
        ├── BudgetExceededError    a replay blew its quad/cycle budget
        └── InjectedFaultError     a failure injected by an armed
                                   FaultPlan (sim.faults; transient)

For backwards compatibility with callers (and the existing test-suite)
that predate the taxonomy, :class:`ConfigError` and
:class:`WorkloadError` are also ``ValueError`` subclasses and
:class:`UnknownWorkloadError` is additionally a ``KeyError``.

Errors carry a ``transient`` flag: the sweep's retry policy re-attempts
only failures marked transient (e.g. a flaky I/O layer under a
checkpoint store), never deterministic ones — retrying a deterministic
crash would just triple a campaign's wall time.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class of every simulator-raised failure."""

    #: Whether a retry has any chance of succeeding.  Class-level
    #: default; individual instances may override via the constructor.
    transient: bool = False

    def __init__(self, *args, transient: Optional[bool] = None):
        super().__init__(*args)
        if transient is not None:
            self.transient = transient


class ConfigError(ReproError, ValueError):
    """An invalid GPU configuration or design-point parameter."""


class UnknownNameError(ConfigError, KeyError):
    """A registry name (grouping, tile order, assignment) that does not exist."""

    # KeyError.__str__ repr()s the first argument, which turns sentence
    # messages into quoted blobs; plain Exception formatting reads better.
    __str__ = Exception.__str__


class WorkloadError(ReproError, ValueError):
    """A workload (scene recipe, animation) cannot be built."""


class UnknownWorkloadError(WorkloadError, KeyError):
    """A game alias or workload name that does not exist."""

    # KeyError.__str__ repr()s the first argument, which turns sentence
    # messages into quoted blobs; plain Exception formatting reads better.
    __str__ = Exception.__str__


class AnalysisError(ReproError, ValueError):
    """A metric cannot be computed from the given results."""


class CheckpointError(ReproError):
    """A checkpoint-store operation failed (unreadable, corrupt, torn).

    Consumers treat this as a *cache miss*: the checkpoint is discarded
    and the underlying artifact is recomputed, never trusted.
    """


class TraceIntegrityError(CheckpointError):
    """A checkpointed frame trace failed hash or structural verification."""


class InvariantViolationError(ReproError):
    """A structural invariant of the decoupled pipeline was violated.

    Raised by the :class:`~repro.analysis.lint.sanitizer.TraceSanitizer`
    when a trace/result pair breaks conservation (quads lost between the
    trace and the scheduler), monotonicity (negative or shrinking cycle
    counts), cache-counter consistency (misses exceeding accesses), the
    raster-stage barrier ordering, or checkpoint-hash agreement.

    ``invariant`` names the violated invariant so campaign tooling can
    aggregate failures by class rather than by message text.
    """

    def __init__(self, *args, invariant: str = "",
                 transient: Optional[bool] = None):
        super().__init__(*args, transient=transient)
        self.invariant = invariant


class ReplayError(ReproError):
    """Pass 2 cannot produce a result for a design point."""


class BudgetExceededError(ReplayError):
    """A replay exceeded its configured quad or cycle budget."""


class InjectedFaultError(ReplayError):
    """A failure injected by an armed :class:`~repro.sim.faults.FaultPlan`.

    Transient by default: injected transients exist precisely to
    exercise the retry machinery, so a retry must be allowed to heal
    them.
    """

    transient = True


class WorkerCrashError(ReproError):
    """A sweep worker process died mid-task (``BrokenProcessPool``).

    Transient: the pool is respawned and the task rescheduled; only
    when the crash repeats past the attempt budget does this surface
    as a :class:`~repro.sim.resilience.FailureRecord`.
    """

    transient = True


class TaskTimeoutError(ReproError):
    """A sweep task exceeded its per-task deadline (hung worker).

    Transient: the hung worker is killed, the pool respawned and the
    task retried before the failure is recorded.
    """

    transient = True


def is_transient(error: BaseException) -> bool:
    """Whether the sweep's retry policy should re-attempt ``error``."""
    return bool(getattr(error, "transient", False))
