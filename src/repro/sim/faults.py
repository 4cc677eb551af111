"""Deterministic, declarative fault injection for the sweep stack.

Long campaigns claim to survive crashed workers, torn checkpoint
writes, corrupted traces and processes killed mid-journal — this module
makes every one of those failures *injectable on demand* so the claims
are tested instead of assumed.  A :class:`FaultPlan` is a seeded,
declarative list of :class:`FaultSpec` entries; arming it (via
:func:`armed`) activates named injection sites threaded through the hot
paths:

======================  ======================================================
site                    instrumented in
======================  ======================================================
``checkpoint.save``     the record writer of :mod:`repro.sim.checkpoint`,
                        behind ``TileChunkStore.save_tile`` (keyed
                        ``<trace key>:s<segment index>``), which both
                        stream drivers call — torn write (the file is
                        truncated after the atomic rename, as if the
                        disk died mid-flush)
``checkpoint.load``     the record reader of :mod:`repro.sim.checkpoint`,
                        behind ``TileChunkStore.load_tile``, keyed alike
                        — the file is truncated or a payload byte is
                        flipped before reading (hash-mismatch corruption)
``journal.record``      :meth:`~repro.sim.checkpoint.SweepProgress.record`
                        — the process dies before the append (``kill``) or
                        mid-append, leaving a partial trailing line
``replay.run``          the (design point, game) replay boundary in
                        :meth:`~repro.sim.experiment.ExperimentRunner.run`,
                        which serial runs and pool tasks share — a
                        transient error or a budget blowout
``sweep.worker``        the worker-process task entry in
                        :mod:`repro.sim.sweep` — sudden process death
                        (``os._exit``) or a hang past the task deadline
======================  ======================================================

Injection decisions are pure functions of ``(plan seed, site, kind,
key, attempt)`` via a SHA-256 draw — no global RNG, no ordering
sensitivity — so a chaos trial replays bit-identically from its seed,
across processes, whatever the worker interleaving.  Each spec fires
only inside its attempt window (``first_attempt`` .. ``first_attempt +
fire_attempts``), which is what makes every injected failure *healable*:
a retried task or a respawned worker re-runs with the next attempt
number and draws clean.

With no plan armed, :func:`fault_point` is a module-global ``None``
check — the sites are free in production runs.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import BudgetExceededError, ConfigError, InjectedFaultError

__all__ = [
    "FaultPlan", "FaultSpec", "FireEvent", "InjectedKill",
    "SITE_CHECKPOINT_LOAD", "SITE_CHECKPOINT_SAVE", "SITE_JOURNAL_RECORD",
    "SITE_REPLAY", "SITE_WORKER", "SITES",
    "KIND_BUDGET", "KIND_CORRUPT", "KIND_EXIT", "KIND_HANG", "KIND_KILL",
    "KIND_PARTIAL_LINE", "KIND_TORN_WRITE", "KIND_TRANSIENT",
    "KIND_TRUNCATE", "KINDS_BY_SITE",
    "active_plan", "armed", "deterministic_fraction", "fault_point",
]

# -- injection sites ----------------------------------------------------------

SITE_CHECKPOINT_SAVE = "checkpoint.save"
SITE_CHECKPOINT_LOAD = "checkpoint.load"
SITE_JOURNAL_RECORD = "journal.record"
SITE_REPLAY = "replay.run"
SITE_WORKER = "sweep.worker"

# -- fault kinds --------------------------------------------------------------

#: Raise a retryable :class:`~repro.errors.InjectedFaultError`.
KIND_TRANSIENT = "transient-error"
#: Raise a (deterministic) :class:`~repro.errors.BudgetExceededError`.
KIND_BUDGET = "budget-blowout"
#: Truncate the just-written checkpoint file (crash mid-flush).
KIND_TORN_WRITE = "torn-write"
#: Truncate the checkpoint file before it is read.
KIND_TRUNCATE = "truncate"
#: Flip one payload byte before the file is read (hash mismatch).
KIND_CORRUPT = "corrupt-byte"
#: Append only a prefix of the journal line, then die (:class:`InjectedKill`).
KIND_PARTIAL_LINE = "partial-line"
#: Die (:class:`InjectedKill`) before the journal line is written.
KIND_KILL = "kill"
#: Kill the worker process outright via ``os._exit``.
KIND_EXIT = "process-exit"
#: Sleep past the sweep's per-task deadline.
KIND_HANG = "hang"

#: Which kinds are meaningful at which site.
KINDS_BY_SITE: Dict[str, Tuple[str, ...]] = {
    SITE_CHECKPOINT_SAVE: (KIND_TORN_WRITE,),
    SITE_CHECKPOINT_LOAD: (KIND_TRUNCATE, KIND_CORRUPT),
    SITE_JOURNAL_RECORD: (KIND_PARTIAL_LINE, KIND_KILL),
    SITE_REPLAY: (KIND_TRANSIENT, KIND_BUDGET),
    SITE_WORKER: (KIND_EXIT, KIND_HANG),
}

SITES: Tuple[str, ...] = tuple(KINDS_BY_SITE)

#: Kinds whose effect the *call site* implements (the trigger returns
#: the kind instead of raising); everything else acts inside trigger().
_DATA_KINDS = frozenset({
    KIND_TORN_WRITE, KIND_TRUNCATE, KIND_CORRUPT, KIND_PARTIAL_LINE,
})


class InjectedKill(BaseException):
    """An injected process death (simulated SIGKILL).

    Deliberately *not* a :class:`~repro.errors.ReproError` — and not
    even an ``Exception`` — so no error boundary (``run_guarded``, the
    sweep's fault isolation, the CLI's friendly handler) can absorb it:
    a kill must end the campaign exactly as a real power cut would,
    leaving only what was durably journaled.  The chaos harness catches
    it, then proves the resumed campaign reproduces the reference.
    """


def deterministic_fraction(*parts: object) -> float:
    """A uniform [0, 1) draw that is a pure function of ``parts``.

    Used instead of ``random.Random`` so injection decisions are
    independent of call ordering and of the process they are made in —
    two workers evaluating the same (seed, site, key, attempt) agree
    without sharing state.
    """
    material = "|".join(str(part) for part in parts)
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultSpec:
    """One declarative injection: where, what, how often, for how long.

    ``probability`` is evaluated per call of the site via a
    deterministic draw.  ``first_attempt``/``fire_attempts`` bound the
    attempt window the spec may fire in: the default (1, 1) fires only
    on a task's first attempt, so a retry or a respawned worker always
    heals.  ``fire_attempts=None`` removes the upper bound (a
    *deterministic* fault that survives every retry).  ``match``
    restricts the spec to site keys containing the substring (e.g. one
    design point's name); the empty default matches every key.
    """

    site: str
    kind: str
    probability: float = 1.0
    first_attempt: int = 1
    fire_attempts: Optional[int] = 1
    match: str = ""
    #: Sleep duration for ``hang`` faults.
    seconds: float = 0.25
    #: Process exit status for ``process-exit`` faults.
    exit_code: int = 13

    def __post_init__(self):
        if self.site not in KINDS_BY_SITE:
            raise ConfigError(
                f"unknown fault site {self.site!r}; "
                f"choose from {', '.join(SITES)}"
            )
        if self.kind not in KINDS_BY_SITE[self.site]:
            raise ConfigError(
                f"fault kind {self.kind!r} is not valid at site "
                f"{self.site!r}; choose from "
                f"{', '.join(KINDS_BY_SITE[self.site])}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(
                f"fault probability must be in [0, 1], "
                f"got {self.probability}"
            )
        if self.first_attempt < 1:
            raise ConfigError(
                f"first_attempt must be >= 1, got {self.first_attempt}"
            )
        if self.fire_attempts is not None and self.fire_attempts < 1:
            raise ConfigError(
                f"fire_attempts must be >= 1 or None, "
                f"got {self.fire_attempts}"
            )

    def window_contains(self, attempt: int) -> bool:
        """Whether ``attempt`` falls inside this spec's firing window."""
        if attempt < self.first_attempt:
            return False
        if self.fire_attempts is None:
            return True
        return attempt < self.first_attempt + self.fire_attempts

    def describe(self) -> str:
        text = f"{self.site}:{self.kind}"
        if self.probability < 1.0:
            text += f"@p={self.probability:g}"
        if self.match:
            text += f"~{self.match}"
        if self.first_attempt != 1 or self.fire_attempts != 1:
            upper = ("inf" if self.fire_attempts is None
                     else self.first_attempt + self.fire_attempts - 1)
            text += f"[{self.first_attempt}..{upper}]"
        return text


@dataclass(frozen=True)
class FireEvent:
    """One fault that actually fired (for reporting and tests)."""

    site: str
    kind: str
    key: str
    attempt: int


@dataclass
class FaultPlan:
    """A seeded set of fault specs, armable as one unit.

    The plan is picklable: the sweep ships it to worker processes,
    which arm their own copy per task.  ``fired`` and the per-key
    attempt counters are process-local observation state — the
    *decisions* never depend on them when an explicit ``attempt`` is
    supplied, and depend only on the per-(site, key) call count
    otherwise.  A pool task returns the events its copy fired, with
    its outcome or its exception, and the sweep appends them to the
    parent's ``fired``.  An attempt that never returns loses its
    events: one killed by ``os._exit`` or by the deadline after a hang.
    """

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = ()
    fired: List[FireEvent] = field(default_factory=list)
    _counts: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def __post_init__(self):
        self.specs = tuple(self.specs)

    def for_sites(self, sites: Set[str]) -> "FaultPlan":
        """A fresh plan holding only the specs at ``sites``."""
        kept = tuple(spec for spec in self.specs if spec.site in sites)
        return FaultPlan(seed=self.seed, specs=kept)

    def describe(self) -> str:
        if not self.specs:
            return "<empty plan>"
        return " + ".join(spec.describe() for spec in self.specs)

    def trigger(
        self, site: str, key: Optional[str] = None,
        attempt: Optional[int] = None,
    ) -> Optional[str]:
        """Evaluate every spec at ``site``; act on those that fire.

        Raising kinds raise from here; ``hang`` sleeps; ``process-exit``
        exits.  Data kinds (file corruption, partial line) are returned
        for the call site to implement — the first fired one wins.
        """
        key = key or ""
        if attempt is None:
            attempt = self._counts.get((site, key), 0) + 1
            self._counts[(site, key)] = attempt
        data_kind: Optional[str] = None
        record_fire = self.fired.append
        for spec in self.specs:
            if spec.site != site or not spec.window_contains(attempt):
                continue
            if spec.match and spec.match not in key:
                continue
            draw = deterministic_fraction(
                self.seed, site, spec.kind, key, attempt
            )
            if draw >= spec.probability:
                continue
            record_fire(FireEvent(site, spec.kind, key, attempt))
            self._execute(spec, site)
            if data_kind is None and spec.kind in _DATA_KINDS:
                data_kind = spec.kind
        return data_kind

    @staticmethod
    def _execute(spec: FaultSpec, site: str) -> None:
        if spec.kind == KIND_TRANSIENT:
            raise InjectedFaultError(
                f"injected transient fault at {site}", transient=True
            )
        if spec.kind == KIND_BUDGET:
            raise BudgetExceededError(
                f"injected budget blowout at {site}"
            )
        if spec.kind == KIND_KILL:
            raise InjectedKill(f"injected kill at {site}")
        if spec.kind == KIND_HANG:
            time.sleep(spec.seconds)
        elif spec.kind == KIND_EXIT:
            # A real crash: no atexit handlers, no finally blocks, no
            # exception the pool could catch — the parent sees only a
            # dead worker (BrokenProcessPool).
            os._exit(spec.exit_code)


# -- module-level arming ------------------------------------------------------

_ACTIVE_PLAN: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    """The currently armed plan, or ``None``."""
    return _ACTIVE_PLAN


@contextmanager
def armed(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Arm ``plan`` for the duration of the block (``None`` = no-op)."""
    if plan is None:
        yield None
        return
    global _ACTIVE_PLAN
    previous = _ACTIVE_PLAN
    _ACTIVE_PLAN = plan
    try:
        yield plan
    finally:
        _ACTIVE_PLAN = previous


def fault_point(
    site: str, key: Optional[str] = None, attempt: Optional[int] = None,
) -> Optional[str]:
    """The hook the instrumented hot paths call.

    Disarmed (the production default) this is one global load and a
    ``None`` check.  Armed, it delegates to the plan and returns the
    fired *data* kind (file corruption the call site must apply) or
    ``None``; raising kinds raise from inside.
    """
    plan = _ACTIVE_PLAN
    if plan is None:
        return None
    return plan.trigger(site, key=key, attempt=attempt)
