"""Randomized chaos campaigns: inject every failure we claim to survive.

``repro chaos`` runs N seeded trials.  Each trial samples a
:class:`~repro.sim.faults.FaultPlan` from a catalog of *healable*
faults (torn checkpoint writes, corrupted trace loads, transient replay
errors, journal kills mid-append, worker process death, worker hangs),
arms it, and runs a small design-space sweep against a fresh checkpoint
directory.  If the injected campaign dies — an :class:`InjectedKill`
mid-journal or a fatal baseline failure, both stand-ins for a real
power cut — the trial resumes it, re-arming only the checkpoint-*load*
faults (the one class of corruption a restart can still encounter).

The invariant each trial proves is the one long campaigns live on: the
resumed (or healed) sweep must produce rows, failures and a manifest
**identical** to an uninjected reference — modulo ``wall_time_s`` —
whatever was injected and wherever the campaign was killed.  Any
divergence, unhandled exception or hang fails the trial, and
:func:`run_chaos` reports nonzero.

Faults that *legitimately* change the report (a budget blowout is a
real failure, not an infrastructure hiccup) are deliberately not in the
catalog — they are covered by the targeted tests in
``tests/test_faults.py`` instead, where the expected FailureRecord is
asserted explicitly.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import GPUConfig
from repro.errors import ConfigError, ReplayError, ReproError
from repro.sim import faults
from repro.sim.experiment import ExperimentRunner
from repro.sim.resilience import RetryPolicy, RunManifest
from repro.sim.sweep import DesignSweep, SweepReport

__all__ = [
    "ChaosReport", "ChaosTrial", "DEFAULT_CHAOS_GAMES", "default_sweep",
    "run_chaos", "sample_plan",
]

#: One small, fast game keeps a 20-trial campaign in CI-smoke territory.
DEFAULT_CHAOS_GAMES: Tuple[str, ...] = ("SWa",)

#: Faults every trial may sample.  They fire wherever the replay path
#: runs: in the parent on a serial trial, in the pool workers when the
#: trial runs jobs > 1.  The checkpoint sites fire on 16-tile segments
#: and on schedule records whichever dataflow the trial draws: a batch
#: runner saves and loads its frames and memory halves through the same
#: store as a streamed replay.
_PARENT_FAULTS: Tuple[Tuple[str, str], ...] = (
    (faults.SITE_CHECKPOINT_SAVE, faults.KIND_TORN_WRITE),
    (faults.SITE_CHECKPOINT_LOAD, faults.KIND_TRUNCATE),
    (faults.SITE_CHECKPOINT_LOAD, faults.KIND_CORRUPT),
    (faults.SITE_JOURNAL_RECORD, faults.KIND_PARTIAL_LINE),
    (faults.SITE_JOURNAL_RECORD, faults.KIND_KILL),
    (faults.SITE_REPLAY, faults.KIND_TRANSIENT),
)

#: Stream drivers chaos trials alternate between: the batch spec and
#: the streaming path whose segment checkpoints must heal kills and
#: corruption landing *inside* a frame.
_TRIAL_STREAMS: Tuple[str, ...] = ("batch", "streaming")

#: Worker-process faults, only meaningful when the trial runs jobs > 1.
_WORKER_FAULTS: Tuple[Tuple[str, str], ...] = (
    (faults.SITE_WORKER, faults.KIND_EXIT),
    (faults.SITE_WORKER, faults.KIND_HANG),
)


def default_sweep() -> DesignSweep:
    """The 4-point grid chaos trials run (2 groupings x both archs)."""
    return DesignSweep(
        groupings=("FG-xshift2", "CG-square"),
        assignments=("const",),
        orders=("zorder",),
        decoupled=(False, True),
    )


def sample_plan(
    seed: int, jobs: int, hang_seconds: float
) -> faults.FaultPlan:
    """Sample one trial's fault plan from the healable catalog.

    Seeded and self-contained: the same ``seed`` always yields the same
    plan.  Every sampled spec fires only on a task's first attempt
    (``fire_attempts=1``), which is what guarantees retries, respawns
    and resumes converge back to the reference result.
    """
    rng = random.Random(seed)
    catalog = list(_PARENT_FAULTS)
    if jobs > 1:
        catalog += list(_WORKER_FAULTS)
    picks = rng.sample(catalog, rng.randint(1, 3))
    specs = []
    for site, kind in picks:
        specs.append(faults.FaultSpec(
            site=site,
            kind=kind,
            probability=round(rng.uniform(0.4, 1.0), 3),
            seconds=hang_seconds,
        ))
    return faults.FaultPlan(seed=seed, specs=tuple(specs))


@dataclass
class ChaosTrial:
    """One trial's outcome: what was injected, what happened, the diff."""

    index: int
    seed: int
    jobs: int
    plan: str
    stream: str = "batch"
    killed: bool = False
    fires: int = 0
    problems: List[str] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "seed": self.seed,
            "jobs": self.jobs,
            "plan": self.plan,
            "stream": self.stream,
            "killed": self.killed,
            "fires": self.fires,
            "problems": list(self.problems),
            "ok": self.ok,
            "wall_time_s": self.wall_time_s,
        }


@dataclass
class ChaosReport:
    """A whole campaign's outcome."""

    trials: List[ChaosTrial] = field(default_factory=list)
    reference_rows: int = 0
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(trial.ok for trial in self.trials)

    @property
    def failed_trials(self) -> List[ChaosTrial]:
        return [trial for trial in self.trials if not trial.ok]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "trials": [trial.as_dict() for trial in self.trials],
            "reference_rows": self.reference_rows,
            "ok": self.ok,
            "wall_time_s": self.wall_time_s,
        }


def _report_diff(
    label: str, report: SweepReport, reference: SweepReport
) -> List[str]:
    """Where ``report`` diverges from the uninjected reference.

    Rows and failures must match bit-for-bit; the manifest must be
    *equivalent*: identical campaign identity and attempted order, and
    the union of succeeded+resumed points equal to the reference's
    succeeded set (a resumed run legitimately reuses journaled rows).
    ``wall_time_s`` is the one sanctioned difference.
    """
    problems: List[str] = []
    rows = [row.as_dict() for row in report.rows]
    ref_rows = [row.as_dict() for row in reference.rows]
    if rows != ref_rows:
        problems.append(f"{label}: rows diverge from reference")
    fails = [failure.as_dict() for failure in report.failures]
    ref_fails = [failure.as_dict() for failure in reference.failures]
    if fails != ref_fails:
        problems.append(
            f"{label}: failures diverge from reference ({fails!r} "
            f"vs {ref_fails!r})"
        )
    manifest: Optional[RunManifest] = report.manifest
    ref_manifest: Optional[RunManifest] = reference.manifest
    if manifest is None or ref_manifest is None:
        problems.append(f"{label}: missing manifest")
        return problems
    if manifest.config_hash != ref_manifest.config_hash:
        problems.append(f"{label}: manifest config hash diverges")
    if manifest.games != ref_manifest.games:
        problems.append(f"{label}: manifest game list diverges")
    if (manifest.design_points_attempted
            != ref_manifest.design_points_attempted):
        problems.append(f"{label}: manifest attempted order diverges")
    finished = sorted(
        manifest.design_points_succeeded + manifest.design_points_resumed
    )
    ref_finished = sorted(
        ref_manifest.design_points_succeeded
        + ref_manifest.design_points_resumed
    )
    if finished != ref_finished:
        problems.append(
            f"{label}: manifest finished set diverges "
            f"({finished!r} vs {ref_finished!r})"
        )
    if (sorted(manifest.design_points_failed)
            != sorted(ref_manifest.design_points_failed)):
        problems.append(f"{label}: manifest failed set diverges")
    return problems


def run_chaos(
    trials: int = 20,
    seed: int = 0,
    jobs: int = 2,
    config: Optional[GPUConfig] = None,
    games: Optional[Sequence[str]] = None,
    sweep: Optional[DesignSweep] = None,
    task_timeout_s: float = 5.0,
    retry_policy: Optional[RetryPolicy] = None,
) -> ChaosReport:
    """Run an N-trial randomized chaos campaign.

    Computes one uninjected serial reference, then per trial: sample a
    plan, run the sweep armed (possibly dying mid-campaign), resume it,
    and diff both reports against the reference.  Deterministic in
    ``seed``; a failed trial names every divergence it found.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    config = config if config is not None else GPUConfig(
        screen_width=128, screen_height=64
    )
    games = list(games) if games is not None else list(DEFAULT_CHAOS_GAMES)
    sweep = sweep if sweep is not None else default_sweep()
    retry_policy = retry_policy if retry_policy is not None else RetryPolicy(
        max_retries=2
    )
    hang_seconds = task_timeout_s * 2.0

    campaign_start = time.monotonic()  # replint: disable=wall-clock -- chaos campaign wall time for reporting, never a simulated quantity
    report = ChaosReport()

    # The uninjected reference every trial is held to.
    reference_dir = tempfile.mkdtemp(prefix="repro-chaos-ref-")
    try:
        reference = sweep.run(
            ExperimentRunner(config, games=games),
            checkpoint_dir=reference_dir,
            retry_policy=retry_policy,
            jobs=1,
        )
    finally:
        shutil.rmtree(reference_dir, ignore_errors=True)
    if reference.failures:
        raise ReplayError(
            "chaos reference campaign failed with no faults armed: "
            + "; ".join(f.message for f in reference.failures)
        )
    report.reference_rows = len(reference.rows)

    master = random.Random(seed)
    for index in range(trials):
        trial_seed = master.randrange(2 ** 31)
        trial_rng = random.Random(trial_seed)
        trial_jobs = trial_rng.choice([1, jobs]) if jobs > 1 else 1
        trial_stream = trial_rng.choice(_TRIAL_STREAMS)
        plan = sample_plan(trial_seed, trial_jobs, hang_seconds)
        trial = ChaosTrial(
            index=index, seed=trial_seed, jobs=trial_jobs,
            plan=plan.describe(), stream=trial_stream,
        )
        trial_start = time.monotonic()  # replint: disable=wall-clock -- chaos trial wall time for reporting, never a simulated quantity
        work_dir = tempfile.mkdtemp(prefix="repro-chaos-trial-")
        try:
            first: Optional[SweepReport] = None
            with faults.armed(plan):
                try:
                    first = sweep.run(
                        ExperimentRunner(
                            config, games=games, stream=trial_stream
                        ),
                        checkpoint_dir=work_dir,
                        retry_policy=retry_policy,
                        jobs=trial_jobs,
                        task_timeout_s=task_timeout_s,
                    )
                except faults.InjectedKill:
                    trial.killed = True
                except ReproError:
                    # A fatal abort (e.g. an injected transient on the
                    # unguarded baseline): the campaign died exactly as
                    # a crashed process would; resume must recover.
                    trial.killed = True
                except Exception as error:
                    trial.killed = True
                    trial.problems.append(
                        f"armed run: unhandled "
                        f"{type(error).__name__}: {error}"
                    )
            # Resume what survived on disk.  Only checkpoint-load
            # corruption stays armed: it is the fault a restarted
            # campaign can still encounter, and it must self-heal by
            # re-rendering (the torn segment's 16 tiles under a sealed
            # manifest, or the whole frame if the kill came before the
            # seal).
            resume_plan = plan.for_sites({faults.SITE_CHECKPOINT_LOAD})
            with faults.armed(resume_plan if resume_plan.specs else None):
                resumed = sweep.run(
                    ExperimentRunner(
                        config, games=games, stream=trial_stream
                    ),
                    checkpoint_dir=work_dir,
                    resume=True,
                    retry_policy=retry_policy,
                    jobs=trial_jobs,
                    task_timeout_s=task_timeout_s,
                )
            if first is not None:
                trial.problems.extend(
                    _report_diff("armed run", first, reference)
                )
            trial.problems.extend(
                _report_diff("resumed run", resumed, reference)
            )
            trial.fires = len(plan.fired) + len(resume_plan.fired)
        except Exception as error:
            trial.problems.append(
                f"trial harness: unhandled {type(error).__name__}: {error}"
            )
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
            trial.wall_time_s = time.monotonic() - trial_start  # replint: disable=wall-clock -- chaos trial wall time for reporting, never a simulated quantity
        report.trials.append(trial)

    report.wall_time_s = time.monotonic() - campaign_start  # replint: disable=wall-clock -- chaos campaign wall time for reporting, never a simulated quantity
    return report
