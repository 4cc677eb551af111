"""Tests for the fault-injection subsystem and the chaos machinery.

One test (at least) per injection site kind, plus the resume-equality
sweeps: kill the campaign at every journal row, resume it, and require
the final report to be bit-identical to an uninjected reference.
"""

from __future__ import annotations

import errno
import gc
import itertools
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.dtexl import BASELINE
from repro.errors import (
    BudgetExceededError,
    CheckpointError,
    ConfigError,
    InjectedFaultError,
    TaskTimeoutError,
    TraceIntegrityError,
    WorkerCrashError,
)
from repro.sim import checkpoint, faults, sweep
from repro.sim.checkpoint import (
    SweepProgress,
    TileChunkStore,
    segment_layout,
    trace_digest,
)
from repro.sim.experiment import ExperimentRunner
from repro.sim.faults import (
    FaultPlan,
    FaultSpec,
    InjectedKill,
    deterministic_fraction,
)
from repro.sim.resilience import RetryPolicy
from repro.sim.experiment import CHUNK_SUBDIR
from repro.sim.sweep import TRACE_SUBDIR, DesignSweep
from tests.test_checkpoint import drop_records

GAME = "SWa"

#: The design point the targeted injections aim at (via ``match``); the
#: baseline suite is unguarded, so untargeted p=1 faults would be fatal.
TARGET = "CG-square/const/zorder/dec"


def make_sweep() -> DesignSweep:
    return DesignSweep(
        groupings=("FG-xshift2", "CG-square"),
        assignments=("const",),
        orders=("zorder",),
        decoupled=(False, True),
    )


def make_runner(tiny_config) -> ExperimentRunner:
    return ExperimentRunner(tiny_config, games=[GAME])


@pytest.fixture(scope="module")
def reference(tiny_config):
    """The uninjected serial report every injected campaign must match."""
    report = make_sweep().run(make_runner(tiny_config))
    assert not report.failures
    return report


def assert_rows_match(report, reference) -> None:
    assert [r.as_dict() for r in report.rows] == [
        r.as_dict() for r in reference.rows
    ]
    assert not report.failures


class TestDeterministicFraction:
    def test_range_and_determinism(self):
        draws = [deterministic_fraction(i, "site", "key") for i in range(50)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert draws == [
            deterministic_fraction(i, "site", "key") for i in range(50)
        ]

    def test_distinct_parts_distinct_draws(self):
        assert deterministic_fraction(1, "a") != deterministic_fraction(1, "b")


class TestFaultSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec(site="nowhere", kind=faults.KIND_KILL)

    def test_kind_must_fit_site(self):
        with pytest.raises(ConfigError):
            FaultSpec(site=faults.SITE_CHECKPOINT_SAVE, kind=faults.KIND_HANG)

    def test_probability_bounds(self):
        with pytest.raises(ConfigError):
            FaultSpec(
                site=faults.SITE_REPLAY, kind=faults.KIND_TRANSIENT,
                probability=1.5,
            )

    def test_attempt_window(self):
        spec = FaultSpec(
            site=faults.SITE_WORKER, kind=faults.KIND_EXIT,
            first_attempt=2, fire_attempts=2,
        )
        assert [spec.window_contains(a) for a in (1, 2, 3, 4)] == [
            False, True, True, False,
        ]

    def test_unbounded_window(self):
        spec = FaultSpec(
            site=faults.SITE_WORKER, kind=faults.KIND_EXIT,
            fire_attempts=None,
        )
        assert spec.window_contains(1) and spec.window_contains(99)


class TestArming:
    def test_disarmed_fault_point_is_noop(self):
        assert faults.active_plan() is None
        assert faults.fault_point(faults.SITE_REPLAY, key="x") is None

    def test_armed_context_restores_previous(self):
        outer = FaultPlan(seed=1)
        inner = FaultPlan(seed=2)
        with faults.armed(outer):
            with faults.armed(inner):
                assert faults.active_plan() is inner
            assert faults.active_plan() is outer
        assert faults.active_plan() is None

    def test_armed_none_is_noop(self):
        with faults.armed(None):
            assert faults.active_plan() is None


class TestTrigger:
    def plan(self, spec: FaultSpec, seed: int = 0) -> FaultPlan:
        return FaultPlan(seed=seed, specs=(spec,))

    def test_transient_raises_retryable(self):
        plan = self.plan(FaultSpec(
            site=faults.SITE_REPLAY, kind=faults.KIND_TRANSIENT,
        ))
        with pytest.raises(InjectedFaultError) as info:
            plan.trigger(faults.SITE_REPLAY, key="d/g")
        assert info.value.transient

    def test_budget_blowout_raises(self):
        plan = self.plan(FaultSpec(
            site=faults.SITE_REPLAY, kind=faults.KIND_BUDGET,
        ))
        with pytest.raises(BudgetExceededError):
            plan.trigger(faults.SITE_REPLAY, key="d/g")

    def test_kill_is_not_an_exception(self):
        plan = self.plan(FaultSpec(
            site=faults.SITE_JOURNAL_RECORD, kind=faults.KIND_KILL,
        ))
        with pytest.raises(InjectedKill) as info:
            plan.trigger(faults.SITE_JOURNAL_RECORD)
        # A simulated SIGKILL must never be absorbable by `except
        # Exception` boundaries.
        assert not isinstance(info.value, Exception)

    def test_data_kind_returned_and_recorded(self):
        plan = self.plan(FaultSpec(
            site=faults.SITE_CHECKPOINT_SAVE, kind=faults.KIND_TORN_WRITE,
        ))
        kind = plan.trigger(faults.SITE_CHECKPOINT_SAVE, key="k")
        assert kind == faults.KIND_TORN_WRITE
        assert [e.kind for e in plan.fired] == [faults.KIND_TORN_WRITE]

    def test_window_limits_auto_attempts(self):
        plan = self.plan(FaultSpec(
            site=faults.SITE_REPLAY, kind=faults.KIND_TRANSIENT,
        ))
        with pytest.raises(InjectedFaultError):
            plan.trigger(faults.SITE_REPLAY, key="d/g")
        # Second call on the same key = attempt 2, outside the window.
        assert plan.trigger(faults.SITE_REPLAY, key="d/g") is None

    def test_match_filters_keys(self):
        plan = self.plan(FaultSpec(
            site=faults.SITE_REPLAY, kind=faults.KIND_TRANSIENT,
            match="other",
        ))
        assert plan.trigger(faults.SITE_REPLAY, key="d/g") is None
        assert not plan.fired

    def test_zero_probability_never_fires(self):
        plan = self.plan(FaultSpec(
            site=faults.SITE_REPLAY, kind=faults.KIND_TRANSIENT,
            probability=0.0,
        ))
        for key in ("a", "b", "c"):
            assert plan.trigger(faults.SITE_REPLAY, key=key) is None

    def test_decisions_are_plan_deterministic(self):
        spec = FaultSpec(
            site=faults.SITE_REPLAY, kind=faults.KIND_TRANSIENT,
            probability=0.5, fire_attempts=None,
        )
        outcomes = []
        for _ in range(2):
            plan = FaultPlan(seed=42, specs=(spec,))
            fired = []
            for key in map(str, range(20)):
                try:
                    plan.trigger(faults.SITE_REPLAY, key=key, attempt=1)
                except InjectedFaultError:
                    fired.append(key)
            outcomes.append(fired)
        assert outcomes[0] == outcomes[1]
        assert 0 < len(outcomes[0]) < 20  # p=0.5 actually splits

    def test_for_sites_filters_specs(self):
        plan = FaultPlan(seed=3, specs=(
            FaultSpec(site=faults.SITE_REPLAY, kind=faults.KIND_TRANSIENT),
            FaultSpec(
                site=faults.SITE_CHECKPOINT_LOAD, kind=faults.KIND_TRUNCATE,
            ),
        ))
        kept = plan.for_sites({faults.SITE_CHECKPOINT_LOAD})
        assert [s.site for s in kept.specs] == [faults.SITE_CHECKPOINT_LOAD]
        assert kept.seed == plan.seed


def save_segment(chunks, trace):
    """Save the trace's first segment to ``chunks``; returns its tiles."""
    (tiles, *_), _ = segment_layout(trace.config.tiles_x, trace.config.tiles_y)
    chunks.save_tile(0, tiles, [trace.tiles[tile] for tile in tiles])
    return tiles


def read_segment(chunks):
    """The record reader's verdict on segment 0: raises on damage."""
    return checkpoint._read_record(
        chunks.segment_path(0), f"{chunks.key}:s0", key=chunks.key, segment=0,
    )


class TestCheckpointFaults:
    """Both drivers save and load frames through the same segment
    records and checkpoint sites: the record reader raises on a damaged
    segment, and the store loads it as a miss that re-renders."""

    @staticmethod
    def _runner(tmp_path, tiny_config):
        return ExperimentRunner(
            tiny_config, games=[GAME], store_dir=tmp_path / "frame"
        )

    def _heals(self, tmp_path, tiny_config, want):
        healer = self._runner(tmp_path, tiny_config)
        assert healer.trace_for(GAME) == want
        assert healer.renders_performed == 1  # damaged segment = miss

    def test_torn_write_detected_on_load(self, tmp_path, tiny_config):
        runner = self._runner(tmp_path, tiny_config)
        frame = runner.chunk_store_for(GAME)
        chunks = TileChunkStore(tmp_path / "chunks", "c")
        plan = FaultPlan(specs=(FaultSpec(
            site=faults.SITE_CHECKPOINT_SAVE, kind=faults.KIND_TORN_WRITE,
        ),))
        with faults.armed(plan):
            want = runner.trace_for(GAME)
            tiles = save_segment(chunks, want)
        assert [event.key for event in plan.fired] == [
            f"{frame.key}:s0", "c:s0",
        ]
        with pytest.raises(TraceIntegrityError):
            read_segment(frame)
        self._heals(tmp_path, tiny_config, want)
        assert chunks.load_tile(0, tiles) is None

    def test_truncated_load_raises_checkpoint_error(
        self, tmp_path, tiny_config
    ):
        runner = self._runner(tmp_path, tiny_config)
        want = runner.trace_for(GAME)
        frame = runner.chunk_store_for(GAME)
        chunks = TileChunkStore(tmp_path / "chunks", "c")
        tiles = save_segment(chunks, want)
        plan = FaultPlan(specs=(FaultSpec(
            site=faults.SITE_CHECKPOINT_LOAD, kind=faults.KIND_TRUNCATE,
        ),))
        with faults.armed(plan):
            with pytest.raises(CheckpointError):
                read_segment(frame)
            self._heals(tmp_path, tiny_config, want)
            assert chunks.load_tile(0, tiles) is None
        assert [event.key for event in plan.fired] == [
            f"{frame.key}:s0", "c:s0",
        ]

    def test_corrupt_byte_fails_payload_hash(self, tmp_path, tiny_config):
        runner = self._runner(tmp_path, tiny_config)
        want = runner.trace_for(GAME)
        frame = runner.chunk_store_for(GAME)
        chunks = TileChunkStore(tmp_path / "chunks", "c")
        tiles = save_segment(chunks, want)
        plan = FaultPlan(specs=(FaultSpec(
            site=faults.SITE_CHECKPOINT_LOAD, kind=faults.KIND_CORRUPT,
        ),))
        with faults.armed(plan):
            with pytest.raises(TraceIntegrityError, match="hash mismatch"):
                read_segment(frame)
            self._heals(tmp_path, tiny_config, want)
            assert chunks.load_tile(0, tiles) is None
        assert [event.key for event in plan.fired] == [
            f"{frame.key}:s0", "c:s0",
        ]

    def test_corrupt_checkpoint_heals_by_rerender(self, tmp_path, tiny_config):
        seeder = ExperimentRunner(
            tiny_config, games=[GAME], store_dir=tmp_path
        )
        seeder.trace_for(GAME)
        assert seeder.renders_performed == 1

        plan = FaultPlan(specs=(FaultSpec(
            site=faults.SITE_CHECKPOINT_LOAD, kind=faults.KIND_TRUNCATE,
        ),))
        healer = ExperimentRunner(
            tiny_config, games=[GAME], store_dir=tmp_path
        )
        with faults.armed(plan):
            healer.trace_for(GAME)
        assert healer.renders_performed == 1  # corrupt load = cache miss

        # The heal re-checkpointed, so the next run loads cleanly again.
        reader = ExperimentRunner(
            tiny_config, games=[GAME], store_dir=tmp_path
        )
        reader.trace_for(GAME)
        assert reader.renders_performed == 0

    def test_corrupt_chunks_heal_by_rerender(self, tmp_path, tiny_config):
        def streaming_runner():
            return ExperimentRunner(
                tiny_config, games=[GAME], store_dir=tmp_path,
                stream="streaming",
            )

        seeder = streaming_runner()
        want = seeder.run(GAME, BASELINE)
        assert seeder.renders_performed == 1

        plan = FaultPlan(specs=(FaultSpec(
            site=faults.SITE_CHECKPOINT_LOAD, kind=faults.KIND_TRUNCATE,
        ),))
        store = seeder.chunk_store_for(GAME)
        drop_records(store)
        healer = streaming_runner()
        with faults.armed(plan):
            assert healer.run(GAME, BASELINE) == want
        segments, _ = segment_layout(tiny_config.tiles_x, tiny_config.tiles_y)
        assert len(plan.fired) == len(segments)
        assert healer.renders_performed == 1  # corrupt segments = misses

        # The heal re-saved every segment, so the next run loads them all.
        drop_records(store)
        reader = streaming_runner()
        assert reader.run(GAME, BASELINE) == want
        assert reader.renders_performed == 0

    def test_trace_for_survives_failing_save(
        self, tmp_path, tiny_config, monkeypatch
    ):
        """A checkpoint write that raises OSError (disk full, read-only
        store) costs the checkpoint, never the trace in memory."""
        def refuse(path, *parts):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(checkpoint, "_atomic_write", refuse)
        runner = ExperimentRunner(
            tiny_config, games=[GAME], store_dir=tmp_path
        )
        trace = runner.trace_for(GAME)
        assert runner.renders_performed == 1
        assert not any(tmp_path.rglob("*.*"))  # nothing reached the disk
        assert runner.trace_for(GAME) is trace  # cached, not re-rendered
        fresh = ExperimentRunner(tiny_config, games=[GAME]).trace_for(GAME)
        assert trace_digest(trace) == trace_digest(fresh)

    def test_streamed_replay_survives_a_full_disk(
        self, tmp_path, small_config, monkeypatch
    ):
        """A segment save, manifest seal or digest-cache write that fails
        with OSError costs the file, never the replay: a streamed replay
        on a full disk gives the batch result, as a batch one does, and
        the next reader renders the missing segments and seals."""
        def full(path, *parts):
            raise OSError(errno.ENOSPC, "No space left on device")

        want = ExperimentRunner(small_config, games=[GAME]).run(
            GAME, BASELINE
        )

        def runner(stream):
            return ExperimentRunner(
                small_config, games=[GAME], store_dir=tmp_path,
                stream=stream,
            )

        with monkeypatch.context() as patch:
            patch.setattr(checkpoint, "_atomic_write", full)
            assert runner("batch").run(GAME, BASELINE) == want
            assert runner("streaming").run(GAME, BASELINE) == want
        chunks = runner("streaming").chunk_store_for(GAME)
        assert not any(tmp_path.rglob("*.*"))  # nothing reached the disk

        healer = runner("streaming")
        stream = healer.stream_for(GAME)
        assert healer.replayer.run_stream(stream, BASELINE) == want
        assert stream.tiles_rendered == small_config.num_tiles
        assert chunks.manifest() is not None
        with monkeypatch.context() as patch:
            patch.setattr(checkpoint, "_atomic_write", full)
            assert chunks.frame_meta()["digest"] == trace_digest(
                healer.trace_for(GAME)
            )
        assert "digest" not in chunks.manifest()  # the cache write failed
        reader = runner("streaming")
        assert reader.run(GAME, BASELINE) == want
        assert reader.renders_performed == 0

    def test_pool_heals_truncated_trace(
        self, tmp_path, tiny_config, reference
    ):
        """Pool workers load frames from the campaign store: one torn on
        disk between two sweeps is re-rendered and re-saved."""
        make_sweep().run(
            make_runner(tiny_config), checkpoint_dir=tmp_path, jobs=2
        )
        (frame,) = (tmp_path / TRACE_SUBDIR / CHUNK_SUBDIR).iterdir()
        store = TileChunkStore(frame, frame.name)

        def load():
            """A fresh batch runner's trace of the campaign's frame."""
            runner = ExperimentRunner(
                tiny_config, games=[GAME], store_dir=tmp_path / TRACE_SUBDIR
            )
            return runner.trace_for(GAME), runner.renders_performed

        want, renders = load()
        assert renders == 0
        path = store.segment_path(0)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointError):
            read_segment(store)
        (tiles, *_), _ = segment_layout(
            tiny_config.tiles_x, tiny_config.tiles_y
        )
        assert store.load_tile(0, tiles) is None
        drop_records(store)
        report = make_sweep().run(
            make_runner(tiny_config), checkpoint_dir=tmp_path, jobs=2
        )
        assert_rows_match(report, reference)
        assert load() == (want, 0)  # healed


class TestJournalFaults:
    ROW = {"speedup": 1.0}

    def test_partial_trailing_line_dropped_with_warning(self, tmp_path):
        progress = SweepProgress(tmp_path, campaign="c")
        progress.record("d1", dict(self.ROW))
        plan = FaultPlan(specs=(FaultSpec(
            site=faults.SITE_JOURNAL_RECORD, kind=faults.KIND_PARTIAL_LINE,
        ),))
        with faults.armed(plan), pytest.raises(InjectedKill):
            progress.record("d2", dict(self.ROW))
        text = progress.path.read_text(encoding="utf-8")
        assert not text.endswith("\n")  # the crash left a torn tail
        with pytest.warns(RuntimeWarning, match="partial trailing line"):
            rows = progress.completed_rows()
        assert rows == {"d1": self.ROW}

    def test_kill_before_append_loses_only_that_row(self, tmp_path):
        progress = SweepProgress(tmp_path, campaign="c")
        progress.record("d1", dict(self.ROW))
        plan = FaultPlan(specs=(FaultSpec(
            site=faults.SITE_JOURNAL_RECORD, kind=faults.KIND_KILL,
        ),))
        with faults.armed(plan), pytest.raises(InjectedKill):
            progress.record("d2", dict(self.ROW))
        assert progress.completed_rows() == {"d1": self.ROW}

    def test_malformed_middle_line_skipped_with_warning(self, tmp_path):
        progress = SweepProgress(tmp_path, campaign="c")
        progress.record("d1", dict(self.ROW))
        with open(progress.path, "a", encoding="utf-8") as handle:
            handle.write("{not json}\n")
        progress.record("d2", dict(self.ROW))
        with pytest.warns(RuntimeWarning, match="malformed line 2"):
            rows = progress.completed_rows()
        assert set(rows) == {"d1", "d2"}


class TestSerialInjection:
    """Targeted ``replay.run`` injections on the serial path.

    :class:`TestPoolInjection` reruns every test on two pool workers:
    both executors replay through ``ExperimentRunner.run``, so rows,
    failure records, attempts and the fires ``plan.fired`` records must
    come out identical.
    """

    jobs = 1

    def test_transient_healed_by_retry(self, tiny_config, reference):
        plan = FaultPlan(specs=(FaultSpec(
            site=faults.SITE_REPLAY, kind=faults.KIND_TRANSIENT,
            match=TARGET,
        ),))
        with faults.armed(plan):
            report = make_sweep().run(
                make_runner(tiny_config),
                retry_policy=RetryPolicy(max_retries=1),
                jobs=self.jobs,
            )
        assert [e.kind for e in plan.fired] == [faults.KIND_TRANSIENT]
        assert_rows_match(report, reference)

    def test_transient_without_retry_becomes_failure_row(
        self, tiny_config, reference
    ):
        plan = FaultPlan(specs=(FaultSpec(
            site=faults.SITE_REPLAY, kind=faults.KIND_TRANSIENT,
            match=TARGET,
        ),))
        with faults.armed(plan):
            report = make_sweep().run(
                make_runner(tiny_config), jobs=self.jobs
            )
        assert len(report.rows) == len(reference.rows) - 1
        (failure,) = report.failures
        assert failure.as_dict() == {
            "design_point": TARGET,
            "game": GAME,
            "error_type": "InjectedFaultError",
            "message": "injected transient fault at replay.run",
            "attempts": 1,
        }
        assert report.outcome == "partial"

    def test_budget_blowout_is_never_retried(self, tiny_config, reference):
        plan = FaultPlan(specs=(FaultSpec(
            site=faults.SITE_REPLAY, kind=faults.KIND_BUDGET,
            match=TARGET,
        ),))
        with faults.armed(plan):
            report = make_sweep().run(
                make_runner(tiny_config),
                retry_policy=RetryPolicy(max_retries=3),
                jobs=self.jobs,
            )
        (failure,) = report.failures
        assert failure.as_dict() == {
            "design_point": TARGET,
            "game": GAME,
            "error_type": "BudgetExceededError",
            "message": "injected budget blowout at replay.run",
            "attempts": 1,  # deterministic: one attempt only
        }
        assert len(report.rows) == len(reference.rows) - 1


class TestPoolInjection(TestSerialInjection):
    jobs = 2


class TestWorkerFires:
    def test_pool_checkpoint_fires_reach_the_parents_plan(
        self, tmp_path, tiny_config, reference
    ):
        """On a pool only the workers open the store, so every
        ``checkpoint.load`` fire of a warm campaign happens in a worker;
        each task hands its fires back to the parent's armed plan."""
        work = tmp_path / "warm"
        make_sweep().run(make_runner(tiny_config), checkpoint_dir=work)
        plan = FaultPlan(specs=(FaultSpec(
            site=faults.SITE_CHECKPOINT_LOAD, kind=faults.KIND_CORRUPT,
        ),))
        with faults.armed(plan):
            report = make_sweep().run(
                make_runner(tiny_config), checkpoint_dir=work, jobs=2
            )
        assert_rows_match(report, reference)
        assert len(plan.fired) > 0
        assert {(e.site, e.kind) for e in plan.fired} == {
            (faults.SITE_CHECKPOINT_LOAD, faults.KIND_CORRUPT)
        }

    def test_fires_of_a_task_that_ends_the_campaign_reach_the_plan(
        self, tiny_config
    ):
        """A transient on the unguarded baseline ends a pool campaign;
        the task that raised it still hands its fires back."""
        plan = FaultPlan(specs=(FaultSpec(
            site=faults.SITE_REPLAY, kind=faults.KIND_TRANSIENT,
            match="baseline/",
        ),))
        with faults.armed(plan), pytest.raises(InjectedFaultError):
            make_sweep().run(make_runner(tiny_config), jobs=2)
        assert plan.fired
        assert {(e.site, e.kind, e.key) for e in plan.fired} == {
            (faults.SITE_REPLAY, faults.KIND_TRANSIENT, f"baseline/{GAME}")
        }

    def test_a_task_returns_only_its_own_fires(
        self, tmp_path, tiny_config, monkeypatch
    ):
        """The pickled plan carries the parent's earlier fires; the task
        returns only the ones it fired."""
        monkeypatch.setattr(sweep, "_WORKER_RUNNERS", {})
        earlier = faults.FireEvent(
            faults.SITE_JOURNAL_RECORD, faults.KIND_KILL, "", 1
        )
        plan = FaultPlan(
            specs=(FaultSpec(
                site=faults.SITE_REPLAY, kind=faults.KIND_TRANSIENT,
            ),),
            fired=[earlier],
        )
        runner = make_runner(tiny_config)
        (run, failure), error, fired = sweep._replay_task(
            str(tmp_path), runner.config, runner.stream, runner.replayer,
            BASELINE, GAME, RetryPolicy(max_retries=1), True, plan=plan,
        )
        assert failure is None and error is None and run.total_quads > 0
        assert [(e.site, e.key, e.attempt) for e in fired] == [
            (faults.SITE_REPLAY, f"{BASELINE.name}/{GAME}", 1)
        ]
        assert plan.fired == [earlier, *fired]


class TestKillAndResume:
    @pytest.mark.parametrize("row_index", [0, 1, 2, 3])
    def test_kill_at_every_journal_row_resumes_identically(
        self, tmp_path, tiny_config, reference, row_index
    ):
        """The flagship invariant: wherever the campaign dies, resuming
        it reproduces the uninjected report exactly."""
        work = tmp_path / f"kill-{row_index}"
        plan = FaultPlan(specs=(FaultSpec(
            site=faults.SITE_JOURNAL_RECORD, kind=faults.KIND_KILL,
            first_attempt=row_index + 1,
        ),))
        with faults.armed(plan), pytest.raises(InjectedKill):
            make_sweep().run(make_runner(tiny_config), checkpoint_dir=work)
        resumed = make_sweep().run(
            make_runner(tiny_config), checkpoint_dir=work, resume=True
        )
        assert_rows_match(resumed, reference)
        expected = [r for r in reference.manifest.design_points_succeeded]
        assert resumed.resumed == expected[:row_index]

    def test_kill_mid_append_resumes_identically(
        self, tmp_path, tiny_config, reference
    ):
        work = tmp_path / "torn"
        plan = FaultPlan(specs=(FaultSpec(
            site=faults.SITE_JOURNAL_RECORD, kind=faults.KIND_PARTIAL_LINE,
            first_attempt=2,
        ),))
        with faults.armed(plan), pytest.raises(InjectedKill):
            make_sweep().run(make_runner(tiny_config), checkpoint_dir=work)
        with pytest.warns(RuntimeWarning, match="partial trailing line"):
            resumed = make_sweep().run(
                make_runner(tiny_config), checkpoint_dir=work, resume=True
            )
        assert_rows_match(resumed, reference)
        assert len(resumed.resumed) == 1  # the torn second row recomputed

    def test_parallel_kill_keeps_journaled_rows(
        self, tmp_path, tiny_config, reference
    ):
        """Parallel rows are journaled as they assemble, so a campaign
        killed mid-flight loses nothing that already completed."""
        work = tmp_path / "parallel"
        plan = FaultPlan(specs=(FaultSpec(
            site=faults.SITE_JOURNAL_RECORD, kind=faults.KIND_KILL,
            first_attempt=2,
        ),))
        with faults.armed(plan), pytest.raises(InjectedKill):
            make_sweep().run(
                make_runner(tiny_config), checkpoint_dir=work, jobs=2
            )
        resumed = make_sweep().run(
            make_runner(tiny_config), checkpoint_dir=work, resume=True,
            jobs=2,
        )
        assert_rows_match(resumed, reference)
        assert len(resumed.resumed) == 1


class TestWorkerRecovery:
    def test_worker_process_exit_heals(self, tiny_config, reference):
        plan = FaultPlan(specs=(FaultSpec(
            site=faults.SITE_WORKER, kind=faults.KIND_EXIT, match=TARGET,
        ),))
        with faults.armed(plan):
            report = make_sweep().run(make_runner(tiny_config), jobs=2)
        assert_rows_match(report, reference)

    def test_worker_hang_past_deadline_heals(self, tiny_config, reference):
        plan = FaultPlan(specs=(FaultSpec(
            site=faults.SITE_WORKER, kind=faults.KIND_HANG, match=TARGET,
            seconds=5.0,
        ),))
        with faults.armed(plan):
            report = make_sweep().run(
                make_runner(tiny_config), jobs=2, task_timeout_s=1.0
            )
        assert_rows_match(report, reference)

    def test_persistent_crasher_becomes_failure_row(
        self, tiny_config, reference
    ):
        plan = FaultPlan(specs=(FaultSpec(
            site=faults.SITE_WORKER, kind=faults.KIND_EXIT, match=TARGET,
            fire_attempts=None,
        ),))
        with faults.armed(plan):
            report = make_sweep().run(
                make_runner(tiny_config), jobs=2, max_task_attempts=2
            )
        (failure,) = report.failures
        assert failure.error_type == "WorkerCrashError"
        assert failure.design_point == TARGET
        assert failure.attempts == 2
        # The bystander design points are untouched by the crashes.
        surviving = [
            r.as_dict() for r in reference.rows
            if not (r.grouping == "CG-square" and r.decoupled)
        ]
        assert [r.as_dict() for r in report.rows] == surviving


class TestPoolBookkeeping:
    def test_pool_broken_during_submission_heals(
        self, tiny_config, reference, monkeypatch
    ):
        """A worker that dies before the walk has submitted every task
        makes ``submit`` itself raise; the breakage must still reach
        the pool's recovery instead of aborting the campaign."""
        calls = itertools.count(1)

        class BreaksOnSecondSubmit(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                if next(calls) == 2:
                    raise BrokenProcessPool("a worker died mid-submission")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", BreaksOnSecondSubmit)
        report = make_sweep().run(make_runner(tiny_config), jobs=2)
        assert_rows_match(report, reference)

    def test_consumed_results_are_released(self, tiny_config, tmp_path):
        """The pool drops a result once the walk has read it."""
        runner = make_runner(tiny_config)
        pool = sweep._TaskPool(1, None, 1, None, (
            str(tmp_path), runner.config, runner.stream, runner.replayer,
        ))
        try:
            pool.submit(("baseline", GAME), (BASELINE, GAME, None, False))
            run, _ = pool.result(("baseline", GAME))
            released = weakref.ref(run)
            del run
            gc.collect()
            assert released() is None
        finally:
            pool.close()


class TestChaosCampaign:
    def test_small_campaign_converges(self, tiny_config):
        from repro.sim.chaos import run_chaos

        report = run_chaos(
            trials=2, seed=5, jobs=2, config=tiny_config,
            task_timeout_s=2.0,
        )
        assert report.ok, [t.as_dict() for t in report.failed_trials]
        assert report.reference_rows == 4
        assert len(report.trials) == 2

    def test_campaign_is_seed_deterministic(self, tiny_config):
        from repro.sim.chaos import run_chaos

        def strip(payload):
            payload.pop("wall_time_s")
            for trial in payload["trials"]:
                trial.pop("wall_time_s")
            return payload

        first = strip(run_chaos(
            trials=2, seed=11, jobs=1, config=tiny_config
        ).as_dict())
        second = strip(run_chaos(
            trials=2, seed=11, jobs=1, config=tiny_config
        ).as_dict())
        assert first == second

    def test_sample_plan_deterministic_and_healable(self):
        from repro.sim.chaos import sample_plan

        plans = [sample_plan(9, jobs=2, hang_seconds=1.0) for _ in range(2)]
        assert plans[0].describe() == plans[1].describe()
        for spec in plans[0].specs:
            assert spec.first_attempt == 1 and spec.fire_attempts == 1

    def test_rejects_bad_arguments(self):
        from repro.sim.chaos import run_chaos

        with pytest.raises(ConfigError):
            run_chaos(trials=0)
        with pytest.raises(ConfigError):
            run_chaos(jobs=0)


class TestTimeoutErrorTyping:
    def test_worker_errors_are_transient(self):
        from repro.errors import is_transient

        assert is_transient(WorkerCrashError("x"))
        assert is_transient(TaskTimeoutError("x"))
