"""Design-space sweeps: evaluate a grid of DTexL design points.

The paper's methodology is a sequence of sweeps (groupings, then orders,
then assignments); :class:`DesignSweep` generalizes that: give it lists
of knob values and it evaluates the cross product over the suite through
a shared :class:`~repro.sim.experiment.ExperimentRunner`, producing flat
result rows that can be printed or written to CSV.

Execution is fault-isolated: a design point that crashes becomes a
structured :class:`~repro.sim.resilience.FailureRecord` in the
campaign's :class:`~repro.sim.resilience.RunManifest` while the rest of
the grid keeps running.  With a checkpoint directory, completed rows
are journaled as they finish and pass-1 frames are kept in it, in the
segment store both stream drivers share, so a killed campaign resumes
from where it died without re-rendering a sealed frame; the manifest is
written alongside as JSON.

Every campaign is one grid walk over one task table: the baseline's
games plus every pending (design point, game) pair, each replayed by
one task body through :meth:`ExperimentRunner.run`.  ``jobs`` only
picks who runs the tasks.  With ``jobs == 1`` each task runs on the
parent's runner when the walk asks for its result.  With ``jobs > 1``
a process pool runs them and the parent renders nothing: each worker
replays through its own runner over the campaign's frame stores (in a
temporary directory when no checkpoint directory is given), so the
first worker that needs a game renders and saves it and later tasks
load it.  Memory halves are shared the same way: the first task of a
:func:`~repro.sim.replay.memory_key` writes its schedule record beside
the frame, and every later task of that key, on any worker or a
resume, replays only the timing half.  The walk consumes results in
grid-and-games order either
way, so a parallel campaign produces bit-identical rows, failures and
manifest contents to a serial one — only ``wall_time_s`` and
``phase_seconds`` differ.

The pool is self-healing (:class:`_TaskPool`): a worker that dies
(``BrokenProcessPool``) or hangs past the per-task deadline is
respawned and its tasks rescheduled; only a task that keeps failing
becomes a :class:`FailureRecord` row.  Rows are journaled as each
design point assembles — before pool teardown — and every injection
site of :mod:`repro.sim.faults` is threaded through this path, so the
`repro chaos` campaign can prove the recovery machinery end to end.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import shutil
import tempfile
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.dtexl import DTexLConfig
from repro.errors import ConfigError, TaskTimeoutError, WorkerCrashError
from repro.sim import faults
from repro.sim.checkpoint import (
    SweepProgress,
    campaign_key,
    config_hash,
    write_run_manifest,
)
from repro.sim.experiment import ExperimentRunner, SuiteResult
from repro.sim.replay import TraceReplayer
from repro.sim.resilience import (
    FailureRecord,
    RetryPolicy,
    RunManifest,
    run_guarded,
)
from repro.stats import per_tile_imbalance

#: Column order of sweep rows.
ROW_FIELDS = [
    "grouping", "assignment", "order", "decoupled",
    "l2_accesses", "l2_normalized", "speedup",
    "quad_imbalance", "energy_mj", "energy_decrease_pct",
]

#: Subdirectory of the checkpoint dir holding pass-1 frames.
TRACE_SUBDIR = "traces"
#: Manifest filename inside the checkpoint dir.
MANIFEST_FILENAME = "manifest.json"


# -- the task body and its executors ------------------------------------------


def _replay(
    runner: ExperimentRunner,
    design: DTexLConfig,
    game: str,
    policy: Optional[RetryPolicy],
    guarded: bool,
):
    """One (design point, game) task, on ``runner``, under either executor.

    Unguarded tasks (the baseline) let exceptions propagate — a
    baseline failure is fatal.  Guarded tasks return the
    ``(result, failure)`` pair of :func:`run_guarded`, so retry
    accounting and failure records do not depend on the executor.
    """
    if not guarded:
        return runner.run(game, design), None
    return run_guarded(
        lambda: runner.run(game, design),
        design_point=design.name,
        game=game,
        policy=policy,
    )


#: This process's runners, keyed by ``(store_dir, config, driver,
#: engine)``.  A pool worker builds one on its first task and keeps it,
#: so a batch trace it rendered or loaded serves all its later tasks.
_WORKER_RUNNERS: Dict[tuple, ExperimentRunner] = {}


def _replay_task(
    store_dir: str,
    config,
    stream_driver: str,
    replayer: TraceReplayer,
    design: DTexLConfig,
    game: str,
    policy: Optional[RetryPolicy],
    guarded: bool,
    plan: Optional[faults.FaultPlan] = None,
    attempt: int = 1,
):
    """:func:`_replay` inside a pool worker (module level: it pickles).

    The replay runs on this worker's runner over the campaign's
    ``store_dir``, built on first use with the parent's ``replayer``
    (budget, engine).  The first worker that needs a game renders it
    and saves it there; later tasks on other workers load it.

    ``plan`` re-arms the parent's fault plan inside the worker (fork
    inheritance is not guaranteed under spawn, and a respawned pool
    must re-arm anyway); ``attempt`` is the task's scheduling attempt,
    so a respawned task draws a fresh — by default clean — injection
    decision.  Returns ``(outcome, error, fired)``: :func:`_replay`'s
    outcome, or ``None`` and the exception it raised, and the fault
    events this task fired, which :meth:`_TaskPool.result` hands back
    to the parent's plan before it raises ``error``.  The plan arrives
    carrying the events the parent had recorded when it was pickled, so
    only the ones after them are this task's.
    """
    fired_before = len(plan.fired) if plan is not None else 0
    outcome = error = None
    try:
        with faults.armed(plan):
            faults.fault_point(
                faults.SITE_WORKER, key=f"{design.name}/{game}",
                attempt=attempt,
            )
            key = (store_dir, config, stream_driver, replayer.engine)
            runner = _WORKER_RUNNERS.get(key)
            if runner is None:
                runner = ExperimentRunner(
                    config, store_dir=store_dir, stream=stream_driver
                )
                runner.replayer = replayer
                _WORKER_RUNNERS[key] = runner
            outcome = _replay(runner, design, game, policy, guarded)
    except Exception as raised:  # the parent raises it after the fires
        error = raised
    fired = plan.fired[fired_before:] if plan is not None else []
    return outcome, error, fired


#: Sentinel design name keying the baseline's tasks in the task table
#: (design point names always contain slashes, so it can never collide).
_BASELINE_TASK = "__baseline__"

#: Default scheduling attempts per task before a crash/hang is recorded.
DEFAULT_MAX_TASK_ATTEMPTS = 3

TaskId = Tuple[str, str]  # (design name or _BASELINE_TASK, game alias)


class _InlineTasks:
    """The ``jobs == 1`` executor: tasks run on the parent's runner.

    A task runs only when the walk asks for its result, so replays run
    one at a time in grid order, a design point that fails fast never
    replays its later games, and the parent's runner keeps its trace
    cache and ``renders_performed`` count.
    """

    def __init__(self, runner: ExperimentRunner):
        self._runner = runner
        self._args: Dict[TaskId, tuple] = {}

    def submit(self, task_id: TaskId, args: tuple) -> None:
        self._args[task_id] = args

    def result(self, task_id: TaskId):
        return _replay(self._runner, *self._args.pop(task_id))

    def close(self) -> None:
        self._args.clear()


class _TaskPool:
    """A :class:`ProcessPoolExecutor` that survives its workers.

    Plain executors make a single dead worker fatal: one ``os._exit``
    (OOM kill, segfault, power event) raises ``BrokenProcessPool`` on
    *every* outstanding future and the campaign aborts with all
    completed-but-unconsumed work lost.  This wrapper owns the task
    book-keeping needed to do better:

    * every submitted task's arguments are retained, so after a pool
      breakage the executor is respawned and unfinished work is
      rescheduled instead of lost;
    * ``result()`` enforces an optional per-task deadline — a hung
      worker is killed (``SIGTERM`` to the pool), the pool respawned,
      and the task retried;
    * blame is assigned by *isolation*: a breakage (or deadline miss)
      implicates every task that might have been running, so only the
      task ``result()`` is waiting on is charged an attempt and
      resubmitted — alone, to an otherwise idle pool — while the rest
      park.  If the pool breaks again, the waited task is provably the
      culprit; an innocent bystander whose neighbor kept crashing is
      never failed on someone else's account.  Once the waited task
      resolves (either way), parked tasks resume at full parallelism;
    * a waited task that keeps crashing or hanging past
      ``max_attempts`` gets a failed future carrying a typed,
      *transient-flagged* error (:class:`WorkerCrashError` /
      :class:`TaskTimeoutError`) the sweep converts into a
      :class:`FailureRecord` row instead of an abort.

    A task's future is kept until the walk consumes it, then dropped
    with the task's arguments: results consumed before a crash stay
    consumed, which is what makes crash recovery invisible in the
    final report, and the parent holds no result it has already read.
    A breakage that surfaces while a task is being submitted is
    recovered the same way (:meth:`_submit`).
    """

    def __init__(
        self,
        jobs: int,
        task_timeout_s: Optional[float],
        max_attempts: int,
        plan: Optional[faults.FaultPlan],
        shared: tuple,
    ):
        self._jobs = jobs
        self._timeout_s = task_timeout_s
        self._max_attempts = max(1, max_attempts)
        self._plan = plan
        #: Leading arguments of every task: how a worker finds its
        #: runner (store directory, config, stream driver, replayer).
        self._shared = shared
        self._executor = ProcessPoolExecutor(max_workers=jobs)
        self._args: Dict[TaskId, tuple] = {}
        self._attempts: Dict[TaskId, int] = {}
        self._futures: Dict[TaskId, Future] = {}
        #: Tasks benched during an isolation run (insertion-ordered so
        #: resubmission preserves the original scheduling order).
        self._parked: Dict[TaskId, None] = {}

    def submit(self, task_id: TaskId, args: tuple) -> None:
        self._args[task_id] = args
        self._attempts[task_id] = 1
        self._futures[task_id] = self._submit(task_id, attempt=1)

    def _submit(self, task_id: TaskId, attempt: int) -> Future:
        """Submit one task attempt; a broken pool yields a failed future.

        ``ProcessPoolExecutor.submit`` raises ``BrokenProcessPool`` at
        once when a worker has already died.  Pinned on a failed future
        instead, the breakage reaches :meth:`result` and is recovered
        like one that hit a running task.
        """
        try:
            return self._executor.submit(
                _replay_task, *self._shared, *self._args[task_id],
                plan=self._plan, attempt=attempt,
            )
        except BrokenProcessPool as error:
            failed: Future = Future()
            failed.set_exception(error)
            return failed

    def attempts(self, task_id: TaskId) -> int:
        """Scheduling attempts consumed by ``task_id`` so far."""
        return self._attempts[task_id]

    def result(self, task_id: TaskId):
        """Blocking consume with crash/hang recovery.

        Returns the task's outcome; the faults it fired in its worker
        join the parent's armed plan, so ``plan.fired`` counts every
        fire a pool campaign's completed attempts made, including an
        attempt that raised.

        Raises :class:`WorkerCrashError` / :class:`TaskTimeoutError`
        only once the waited task has exhausted its attempts *in
        isolation*; any other exception is the task's own and is
        raised once its fires have joined the plan.
        """
        try:
            while True:
                future = self._futures[task_id]
                try:
                    outcome, error, fired = future.result(
                        timeout=self._timeout_s
                    )
                except BrokenProcessPool:
                    self._recover(
                        task_id,
                        WorkerCrashError(
                            f"worker process died while running "
                            f"{task_id[0]} on {task_id[1]}"
                        ),
                        kill_workers=False,
                    )
                except FuturesTimeoutError:
                    self._recover(
                        task_id,
                        TaskTimeoutError(
                            f"task {task_id[0]} on {task_id[1]} exceeded "
                            f"its {self._timeout_s:.6g} s deadline"
                        ),
                        kill_workers=True,
                    )
                else:
                    # Consumed: the walk never asks for it again, so the
                    # parent keeps no result it has already read.
                    del self._futures[task_id], self._args[task_id]
                    if self._plan is not None:
                        self._plan.fired.extend(fired)
                    if error is not None:
                        raise error
                    return outcome
        finally:
            self._unpark()

    def _recover(
        self, waited: TaskId, error: Exception, kill_workers: bool
    ) -> None:
        """Respawn the executor; isolate ``waited``, park everyone else.

        A breakage implicates every task that might have been running,
        so only ``waited`` — the one task whose outcome we need right
        now — is charged an attempt and resubmitted to the fresh,
        otherwise empty pool.  If the pool breaks again the culprit is
        unambiguous.  Everything else (queued, cancelled, or lost
        mid-flight) parks with its attempt count untouched and is
        resubmitted once the isolation resolves.
        """
        broken = self._executor
        if kill_workers:
            # A deadline miss means a worker is wedged; shutdown alone
            # would wait on it forever.
            for process in list(getattr(broken, "_processes", {}).values()):
                try:
                    process.terminate()
                except OSError:
                    pass
        broken.shutdown(wait=False, cancel_futures=True)
        self._executor = ProcessPoolExecutor(max_workers=self._jobs)
        for task_id, future in list(self._futures.items()):
            if task_id == waited:
                continue
            if future.done() and not future.cancelled():
                if not isinstance(future.exception(), BrokenProcessPool):
                    continue  # a kept result (or the task's own error)
            self._parked[task_id] = None
        attempt = self._attempts[waited] + 1
        if attempt > self._max_attempts:
            # Out of attempts: pin the typed error on a dead future so
            # result() surfaces it exactly once, in grid order.
            failed: Future = Future()
            failed.set_exception(error)
            self._futures[waited] = failed
        else:
            self._attempts[waited] = attempt
            self._futures[waited] = self._submit(waited, attempt)

    def _unpark(self) -> None:
        """Resubmit parked tasks once an isolation run resolves."""
        for task_id in self._parked:
            self._futures[task_id] = self._submit(
                task_id, self._attempts[task_id]
            )
        self._parked.clear()

    def close(self) -> None:
        """Tear the pool down without letting a hung worker pin us.

        Idle workers exit promptly after ``shutdown``; one still
        wedged in an injected (or real) hang gets a bounded join and
        then a terminate, so campaign teardown — including teardown on
        the way out of a fatal kill — never outlasts the fault.
        """
        executor = self._executor
        processes = list((getattr(executor, "_processes", None) or {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.join(timeout=1.0)
            if process.is_alive():
                try:
                    process.terminate()
                except OSError:
                    pass


@dataclass
class SweepRow:
    """One design point's aggregate results over the suite."""

    grouping: str
    assignment: str
    order: str
    decoupled: bool
    l2_accesses: int
    l2_normalized: float
    speedup: float
    quad_imbalance: float
    energy_mj: float
    energy_decrease_pct: float

    def as_dict(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in ROW_FIELDS}

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "SweepRow":
        """Rebuild a row journaled by a previous run."""
        return SweepRow(**{name: payload[name] for name in ROW_FIELDS})


@dataclass
class SweepReport:
    """Everything one sweep campaign produced: its rows and its manifest.

    Failures, resumed points, wall time and outcome are the manifest's;
    the report reads them from there.
    """

    manifest: RunManifest
    rows: List[SweepRow] = field(default_factory=list)

    @property
    def failures(self) -> List[FailureRecord]:
        return self.manifest.failures

    @property
    def resumed(self) -> List[str]:
        """Design-point names whose rows were loaded from a previous run."""
        return self.manifest.design_points_resumed

    @property
    def outcome(self) -> str:
        return self.manifest.outcome


@dataclass
class DesignSweep:
    """A grid over the DTexL design space."""

    groupings: Sequence[str] = ("FG-xshift2", "CG-square")
    assignments: Sequence[str] = ("const",)
    orders: Sequence[str] = ("zorder",)
    decoupled: Sequence[bool] = (False, True)
    baseline: DTexLConfig = field(default_factory=lambda: DTexLConfig("baseline"))

    def design_points(self) -> List[DTexLConfig]:
        """The cross product, as named design points."""
        points = []
        for grouping, assignment, order, dec in product(
            self.groupings, self.assignments, self.orders, self.decoupled
        ):
            arch = "dec" if dec else "cpl"
            points.append(
                DTexLConfig(
                    name=f"{grouping}/{assignment}/{order}/{arch}",
                    grouping=grouping,
                    assignment=assignment,
                    order=order,
                    decoupled=dec,
                )
            )
        return points

    def run(
        self,
        runner: ExperimentRunner,
        checkpoint_dir: Optional[os.PathLike] = None,
        resume: bool = False,
        retry_policy: Optional[RetryPolicy] = None,
        jobs: int = 1,
        task_timeout_s: Optional[float] = None,
        max_task_attempts: int = DEFAULT_MAX_TASK_ATTEMPTS,
    ) -> SweepReport:
        """Evaluate every point; rows are ordered as the grid iterates.

        Per-design-point failures are isolated into
        ``report.failures``; only a baseline that cannot run at all is
        fatal (it propagates, since nothing can be normalized without
        it).  With ``checkpoint_dir``, frames and completed rows are
        persisted there (the runner keeps its frames there only while
        ``run`` runs) and a manifest is written; with ``resume``, rows
        journaled by a previous run of the same campaign are reused
        instead of recomputed.  ``jobs > 1`` fans the replays over
        worker processes; the report is bit-identical to a serial run
        except for ``wall_time_s`` and ``phase_seconds``.

        The pool is self-healing: a crashed worker
        (``BrokenProcessPool``) respawns the pool and reschedules every
        in-flight task, a task past ``task_timeout_s`` has its hung
        worker killed and is retried, and a task that fails
        ``max_task_attempts`` schedulings becomes a
        :class:`FailureRecord` row (``WorkerCrashError`` /
        ``TaskTimeoutError``) instead of aborting the campaign.  Rows
        are journaled the moment they assemble — before pool teardown —
        so even a campaign killed outright resumes without losing
        completed work.
        """
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ConfigError(
                f"task_timeout_s must be positive, got {task_timeout_s}"
            )
        start = time.monotonic()  # replint: disable=wall-clock -- campaign wall time for the manifest, never a simulated quantity
        progress: Optional[SweepProgress] = None
        frames = contextlib.nullcontext()
        if checkpoint_dir is not None:
            checkpoint_dir = Path(checkpoint_dir)
            frames = runner.storing_frames(checkpoint_dir / TRACE_SUBDIR)
            progress = SweepProgress(
                checkpoint_dir,
                campaign_key(runner.config, runner.games, self.baseline.name),
            )
        completed = progress.completed_rows() if (progress and resume) else {}

        manifest = RunManifest(
            config_hash=config_hash(runner.config),
            games=list(runner.games),
        )
        report = SweepReport(manifest)
        with frames:
            self._walk(
                runner, retry_policy, completed, progress, report, manifest,
                jobs, task_timeout_s, max_task_attempts,
            )
        manifest.wall_time_s = time.monotonic() - start  # replint: disable=wall-clock -- campaign wall time for the manifest, never a simulated quantity
        if checkpoint_dir is not None:
            write_run_manifest(checkpoint_dir / MANIFEST_FILENAME, manifest)
        return report

    def _walk(
        self, runner, retry_policy, completed, progress, report, manifest,
        jobs: int, task_timeout_s: Optional[float], max_task_attempts: int,
    ) -> None:
        """The campaign's one grid walk, under either executor.

        The task table holds the baseline's games (unguarded) and every
        pending (design point, game) pair (guarded).  ``jobs == 1`` runs
        a task on ``runner`` when the walk asks for its result;
        ``jobs > 1`` submits the table to a :class:`_TaskPool` over the
        runner's ``store_dir`` (or a temporary one: workers share frames).
        Results are consumed in grid-and-games order: journaled rows
        resume, the baseline's results are consumed at the first pending
        point (any baseline failure is fatal, a pool crash that outlived
        its retries included), and each point keeps only its first
        failing game.  A point is assembled, and its row journaled, as
        soon as its own tasks finish, so a killed campaign keeps every
        completed row on disk.  ``phase_seconds`` stamps ``replay``
        under both executors, after the pool's ``pool_startup``
        (executor creation and task submission).
        """
        pending = [
            design for design in self.design_points()
            if design.name not in completed
        ]
        executor = None
        temp_dir: Optional[str] = None
        phase_start = time.monotonic()  # replint: disable=wall-clock -- campaign phase attribution for the manifest, never a simulated quantity

        def stamp(phase: str) -> None:
            nonlocal phase_start
            now = time.monotonic()  # replint: disable=wall-clock -- campaign phase attribution for the manifest, never a simulated quantity
            manifest.phase_seconds[phase] = now - phase_start
            phase_start = now

        try:
            if pending:
                if jobs == 1:
                    executor = _InlineTasks(runner)
                else:
                    if runner.store_dir is not None:
                        store_dir = str(runner.store_dir)
                    else:
                        temp_dir = tempfile.mkdtemp(
                            prefix="repro-sweep-traces-"
                        )
                        store_dir = temp_dir
                    executor = _TaskPool(
                        jobs, task_timeout_s, max_task_attempts,
                        faults.active_plan(),
                        (store_dir, runner.config, runner.stream,
                         runner.replayer),
                    )
                for alias in runner.games:
                    executor.submit(
                        (_BASELINE_TASK, alias),
                        (self.baseline, alias, retry_policy, False),
                    )
                for design in pending:
                    for alias in runner.games:
                        executor.submit(
                            (design.name, alias),
                            (design, alias, retry_policy, True),
                        )
                if jobs > 1:
                    stamp("pool_startup")
            base: Optional[SuiteResult] = None
            for design in self.design_points():
                manifest.design_points_attempted.append(design.name)
                if design.name in completed:
                    report.rows.append(
                        SweepRow.from_dict(completed[design.name])
                    )
                    manifest.design_points_resumed.append(design.name)
                    continue
                if base is None:
                    base = SuiteResult(design_point=self.baseline.name)
                    for alias in runner.games:
                        run, _ = executor.result((_BASELINE_TASK, alias))
                        base.per_game[alias] = run
                suite = SuiteResult(design_point=design.name)
                for alias in runner.games:
                    try:
                        run, failure = executor.result((design.name, alias))
                    except (WorkerCrashError, TaskTimeoutError) as error:
                        # Only the pool raises these: a worker crash or
                        # hang that outlived the task's attempts.
                        failure = FailureRecord.of(
                            error, design.name, alias,
                            attempts=executor.attempts((design.name, alias)),
                        )
                    if failure is not None:
                        suite.failures.append(failure)
                        break  # keep only the first failing game
                    suite.per_game[alias] = run
                self._assemble(
                    design, suite, base, runner, retry_policy, progress,
                    report, manifest,
                )
            if pending:
                stamp("replay")
        finally:
            if executor is not None:
                executor.close()
            if temp_dir is not None:
                shutil.rmtree(temp_dir, ignore_errors=True)

    def _assemble(
        self, design, suite, base, runner, retry_policy, progress, report,
        manifest,
    ) -> None:
        """Turn one design point's suite result into a row or failures."""
        if suite.failures:
            manifest.failures.extend(suite.failures)
            manifest.design_points_failed.append(design.name)
            return
        row, failure = run_guarded(
            lambda: self._row(design, suite, base, runner.games),
            design_point=design.name,
            policy=retry_policy,
        )
        if failure is not None:
            manifest.failures.append(failure)
            manifest.design_points_failed.append(design.name)
            return
        report.rows.append(row)
        manifest.design_points_succeeded.append(design.name)
        if progress is not None:
            progress.record(design.name, row.as_dict())

    @staticmethod
    def _row(
        design: DTexLConfig,
        suite: SuiteResult,
        base: SuiteResult,
        games: Iterable[str],
    ) -> SweepRow:
        imbalances = [
            per_tile_imbalance(suite.per_game[g].per_tile_quad_counts)
            for g in games
        ]
        energy = sum(r.energy.total_mj for r in suite.per_game.values())
        return SweepRow(
            grouping=design.grouping,
            assignment=design.assignment,
            order=design.order,
            decoupled=design.decoupled,
            l2_accesses=suite.total_l2_accesses,
            l2_normalized=(
                suite.total_l2_accesses / base.total_l2_accesses
                if base.total_l2_accesses else 0.0
            ),
            speedup=(
                suite.mean_speedup_vs(base) if suite.per_game else 0.0
            ),
            quad_imbalance=(
                sum(imbalances) / len(imbalances) if imbalances else 0.0
            ),
            energy_mj=energy,
            energy_decrease_pct=suite.mean_energy_decrease_vs(base),
        )


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """Serialize sweep rows as CSV (header + one line per point)."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=ROW_FIELDS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row.as_dict())
    return buffer.getvalue()


def best_row(
    rows: Sequence[SweepRow], objective: str = "speedup"
) -> Optional[SweepRow]:
    """The Pareto-naive winner by a single objective column."""
    if not rows:
        return None
    if objective in ("l2_accesses", "l2_normalized", "quad_imbalance",
                     "energy_mj"):
        return min(rows, key=lambda r: getattr(r, objective))
    return max(rows, key=lambda r: getattr(r, objective))
