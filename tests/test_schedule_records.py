"""Schedule records: one memory pass per (frame, memory key).

An :class:`ExperimentRunner` looks a replay's memory half up before it
opens a stream: in its own memory, then in the frame store's
``<memory key>.work`` records.  These tests pin that a hit changes no
result under either driver, executor or a resume, that records cross
processes, that a hit touches no segment and renders nothing, and that a
damaged record is a miss that heals.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.dtexl import BASELINE, DTEXL_BEST
from repro.errors import BudgetExceededError, TraceIntegrityError
from repro.sim import checkpoint, experiment, faults
from repro.sim.checkpoint import SweepProgress, TileChunkStore
from repro.sim.experiment import CHUNK_SUBDIR, ExperimentRunner
from repro.sim.faults import FaultPlan, FaultSpec
from repro.sim.replay import ScheduleWork, TraceReplayer, memory_key
from repro.sim.resilience import ReplayBudget
from repro.sim.stream import BatchTileStream
from repro.sim.sweep import TRACE_SUBDIR, DesignSweep
from tests.test_checkpoint import drop_records

GAMES = ["SWa", "GTr"]
DRIVERS = ["batch", "streaming"]

#: perfbench's campaign at a smaller scale: a cold grid, then a resume
#: on the larger grid that contains it (12 points, 9 memory keys with
#: the baseline).
COLD = DesignSweep(
    groupings=("FG-xshift2", "CG-square"), orders=("zorder", "hilbert"),
    decoupled=(True,),
)
FULL = DesignSweep(
    groupings=("FG-xshift2", "CG-square", "CG-yrect"),
    assignments=("const", "flp2"), orders=("zorder", "hilbert"),
    decoupled=(True,),
)


def runner_over(config, store_dir=None, stream="streaming", **kwargs):
    return ExperimentRunner(
        config, games=["SWa"], store_dir=store_dir, stream=stream, **kwargs
    )


def manifest_minus_wall_time(report):
    data = report.manifest.as_dict()
    data.pop("wall_time_s")
    data.pop("phase_seconds")
    return data


def frame_records(checkpoint_dir):
    """Each frame directory's record names."""
    frames = checkpoint_dir / TRACE_SUBDIR / CHUNK_SUBDIR
    return {
        frame.name: sorted(path.name for path in frame.glob("*.work"))
        for frame in frames.iterdir()
    }


@pytest.fixture()
def passes(monkeypatch):
    """The design name of every memory pass a replay computes."""
    names = []
    original = TraceReplayer.replay_schedule

    def counting(self, stream, design, hierarchy=None):
        names.append(design.name)
        return original(self, stream, design, hierarchy)

    monkeypatch.setattr(TraceReplayer, "replay_schedule", counting)
    return names


@pytest.mark.parametrize("stream", DRIVERS)
class TestCampaigns:
    def test_serial_pool_and_resumed_campaigns_agree(
        self, tmp_path, tiny_config, stream
    ):
        """Fresh and resumed campaigns, serial and on a pool, give the
        rows of a reference-engine campaign, which shares nothing; the
        serial and pool runs of each give identical journals, manifests
        (but wall time) and records: one per memory key and frame."""
        def runner():
            return ExperimentRunner(tiny_config, games=GAMES, stream=stream)

        reference = runner()
        reference.replayer = TraceReplayer(tiny_config, engine="reference")
        want = FULL.run(reference).rows
        keys = {
            memory_key(design, tiny_config)
            for design in [FULL.baseline, *FULL.design_points()]
        }
        assert len(keys) == 9
        outcomes = {}
        for jobs in (1, 2):
            fresh_dir = tmp_path / f"fresh-{jobs}"
            fresh = FULL.run(runner(), checkpoint_dir=fresh_dir, jobs=jobs)
            resumed_dir = tmp_path / f"resumed-{jobs}"
            COLD.run(runner(), checkpoint_dir=resumed_dir, jobs=jobs)
            resumed = FULL.run(
                runner(), checkpoint_dir=resumed_dir, resume=True, jobs=jobs
            )
            assert fresh.rows == resumed.rows == want
            outcomes[jobs] = [
                (
                    manifest_minus_wall_time(report),
                    (directory / SweepProgress.FILENAME).read_text(),
                    frame_records(directory),
                )
                for report, directory in (
                    (fresh, fresh_dir), (resumed, resumed_dir),
                )
            ]
            for _, _, records in outcomes[jobs]:
                assert len(records) == len(GAMES)
                for names in records.values():
                    assert names == sorted(f"{key}.work" for key in keys)
        assert outcomes[1] == outcomes[2]

    def test_a_second_campaign_on_one_runner_writes_its_own(
        self, tmp_path, tiny_config, stream
    ):
        """A runner's memory halves stay with the campaign that computed
        them: a second campaign into another directory writes its own
        frames and records."""
        runner = ExperimentRunner(tiny_config, games=GAMES, stream=stream)
        first = COLD.run(runner, checkpoint_dir=tmp_path / "first")
        second = COLD.run(runner, checkpoint_dir=tmp_path / "second")
        assert first.rows == second.rows
        records = frame_records(tmp_path / "first")
        assert len(records) == len(GAMES)
        assert all(records.values())
        assert frame_records(tmp_path / "second") == records
        for directory in ("first", "second"):
            frames = tmp_path / directory / TRACE_SUBDIR / CHUNK_SUBDIR
            for frame in frames.iterdir():
                assert TileChunkStore(frame, frame.name).manifest()


@pytest.mark.parametrize("stream", DRIVERS)
def test_a_hit_opens_no_segment_and_renders_nothing(
    tmp_path, tiny_config, monkeypatch, passes, stream
):
    """A fresh runner's replays of a stored key read one manifest and
    one record each: no segment, no scene, no render, no memory pass,
    for the design that wrote the record and for its barrier twin."""
    runner_over(tiny_config, tmp_path).run("SWa", BASELINE)
    twin = dataclasses.replace(BASELINE, name="twin", decoupled=True)
    trace = runner_over(tiny_config, stream="batch").trace_for("SWa")
    want = [TraceReplayer(tiny_config).run(trace, d) for d in (BASELINE, twin)]

    def forbidden(*args, **kwargs):
        raise AssertionError("a hit opened the frame")

    reader = runner_over(tiny_config, tmp_path, stream)
    monkeypatch.setattr(TileChunkStore, "load_tile", forbidden)
    monkeypatch.setattr(experiment, "build_game", forbidden)
    monkeypatch.setattr(reader, "trace_for", forbidden)
    passes.clear()
    assert [reader.run("SWa", d) for d in (BASELINE, twin)] == want
    assert passes == []
    assert reader.renders_performed == 0


@pytest.mark.parametrize("stream", DRIVERS)
def test_a_record_one_process_writes_hits_in_another(
    tmp_path, tiny_config, monkeypatch, passes, stream
):
    """Records are named by the memory key itself, never by a salted
    ``hash()``: another interpreter, with another hash seed, writes one
    that this process reads."""
    script = (
        "import sys\n"
        "from repro.config import GPUConfig\n"
        "from repro.core.dtexl import DTEXL_BEST\n"
        "from repro.sim.experiment import ExperimentRunner\n"
        "ExperimentRunner(\n"
        "    GPUConfig(screen_width=128, screen_height=64), games=['SWa'],\n"
        "    store_dir=sys.argv[1], stream='streaming',\n"
        ").run('SWa', DTEXL_BEST)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(
        os.environ, PYTHONHASHSEED=seed,
        PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ),
    )
    subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], check=True, env=env,
    )
    loads = []
    load = TileChunkStore.load_tile
    monkeypatch.setattr(
        TileChunkStore, "load_tile",
        lambda store, *args: loads.append(args) or load(store, *args),
    )
    reader = runner_over(tiny_config, tmp_path, stream)
    got = reader.run("SWa", DTEXL_BEST)
    assert passes == [] and loads == []
    assert reader.renders_performed == 0
    assert got == TraceReplayer(tiny_config).run(
        runner_over(tiny_config, stream="batch").trace_for("SWa"), DTEXL_BEST
    )


@pytest.mark.parametrize(
    "damage", ["torn", "truncated", "corrupt", "foreign-key", "foreign-seal"]
)
def test_a_damaged_record_is_a_miss_that_rewrites_it(
    tmp_path, tiny_config, passes, damage
):
    """Faults aimed at the record's fault key (a torn save, a load that
    truncates or flips a byte), a record of another key and one bound to
    another seal all read as misses: the replay computes its memory half
    again, with the same result, and rewrites the record."""
    seeder = runner_over(tiny_config, tmp_path)
    seeder.run("SWa", BASELINE)
    want = seeder.run("SWa", DTEXL_BEST)
    store = seeder.chunk_store_for("SWa")
    key = memory_key(DTEXL_BEST, tiny_config)
    path = store.work_path(key)
    good = path.read_bytes()
    fault_key = f"{store.key}:w{key}"
    plan = None
    if damage == "torn":
        path.unlink()
        torn = FaultPlan(specs=(FaultSpec(
            site=faults.SITE_CHECKPOINT_SAVE, kind=faults.KIND_TORN_WRITE,
            match=fault_key,
        ),))
        with faults.armed(torn):
            assert runner_over(tiny_config, tmp_path).run(
                "SWa", DTEXL_BEST
            ) == want
        assert [event.key for event in torn.fired] == [fault_key]
        assert store.load_work(key) is None
    elif damage in ("truncated", "corrupt"):
        plan = FaultPlan(specs=(FaultSpec(
            site=faults.SITE_CHECKPOINT_LOAD,
            kind=(
                faults.KIND_TRUNCATE if damage == "truncated"
                else faults.KIND_CORRUPT
            ),
            match=fault_key,
        ),))
    elif damage == "foreign-key":
        path.write_bytes(
            store.work_path(memory_key(BASELINE, tiny_config)).read_bytes()
        )
    else:
        checkpoint._write_record(
            path, fault_key, store.load_work(key),
            key=store.key, work=key, seal="0" * 64,
        )
    passes.clear()
    with faults.armed(plan):
        assert runner_over(tiny_config, tmp_path).run(
            "SWa", DTEXL_BEST
        ) == want
    if plan is not None:
        assert [event.key for event in plan.fired] == [fault_key]
    assert passes == [DTEXL_BEST.name]
    assert path.read_bytes() == good
    passes.clear()
    assert runner_over(tiny_config, tmp_path).run("SWa", DTEXL_BEST) == want
    assert passes == []


@pytest.mark.parametrize("stream", DRIVERS)
def test_a_record_is_read_only_under_a_seal(
    tmp_path, tiny_config, passes, stream
):
    """Without a sealed ``frame.json`` no record is read, even a valid
    one: the replay renders the frame, seals it and rewrites the
    record."""
    seeder = runner_over(tiny_config, tmp_path)
    want = seeder.run("SWa", DTEXL_BEST)
    store = seeder.chunk_store_for("SWa")
    key = memory_key(DTEXL_BEST, tiny_config)
    good = store.work_path(key).read_bytes()
    work = ScheduleWork.from_bytes(store.load_work(key))
    store.save_work(key, dataclasses.replace(
        work, stall_cycles=work.stall_cycles + 1000
    ).to_bytes())
    sealed = store.manifest()
    store.manifest_path().unlink()
    passes.clear()
    reader = runner_over(tiny_config, tmp_path, stream)
    assert reader.run("SWa", DTEXL_BEST) == want
    assert passes == [DTEXL_BEST.name]
    assert reader.renders_performed == 1
    assert store.manifest() == sealed
    assert store.work_path(key).read_bytes() == good


def test_a_record_is_bound_to_the_vertex_prologue(
    tmp_path, tiny_config, passes
):
    """A replay of a sealed frame takes its vertex prologue from the
    manifest, so a manifest whose ``vertex_lines`` changed under the
    same segment hashes is another seal: its records are misses."""
    seeder = runner_over(tiny_config, tmp_path)
    seeder.run("SWa", DTEXL_BEST)
    store = seeder.chunk_store_for("SWa")
    key = memory_key(DTEXL_BEST, tiny_config)
    sealed = store.manifest_path().read_bytes()
    manifest = store.manifest()
    manifest["vertex_lines"] = [*manifest["vertex_lines"], 1 << 40]
    store._write_manifest(manifest)
    assert store.manifest() is not None  # still sealed
    assert store.load_work(key) is None
    passes.clear()
    runner_over(tiny_config, tmp_path).run("SWa", DTEXL_BEST)
    assert passes == [DTEXL_BEST.name]
    store.manifest_path().write_bytes(sealed)
    assert store.load_work(key) is None  # rewritten under the other seal


@pytest.mark.parametrize(
    "make_budget",
    [
        lambda quads: ReplayBudget(max_quads=1),
        lambda quads: ReplayBudget(max_quads=quads // 2),
    ],
    ids=["first-tile", "mid-frame"],
)
def test_a_hit_raises_the_budget_error_of_the_replay(
    tmp_path, tiny_config, passes, make_budget
):
    quads = runner_over(tiny_config, tmp_path).run(
        "SWa", DTEXL_BEST
    ).total_quads

    def bounded_error():
        runner = runner_over(
            tiny_config, tmp_path, budget=make_budget(quads)
        )
        with pytest.raises(BudgetExceededError) as error:
            runner.run("SWa", DTEXL_BEST)
        return str(error.value)

    passes.clear()
    hit = bounded_error()
    assert passes == []
    drop_records(runner_over(tiny_config, tmp_path).chunk_store_for("SWa"))
    assert bounded_error() == hit
    assert passes == [DTEXL_BEST.name]


@pytest.mark.parametrize("stream", DRIVERS)
def test_the_reference_engine_reads_and_writes_no_record(
    tmp_path, tiny_config, stream
):
    def reference():
        runner = runner_over(tiny_config, tmp_path, stream)
        runner.replayer = TraceReplayer(tiny_config, engine="reference")
        return runner

    want = reference().run("SWa", DTEXL_BEST)
    store = runner_over(tiny_config, tmp_path).chunk_store_for("SWa")
    assert not list(store.directory.glob("*.work"))
    assert runner_over(tiny_config, tmp_path, stream).run(
        "SWa", DTEXL_BEST
    ) == want
    # A visibly wrong record: a fast runner's hit shows it, the
    # reference engine never reads it.
    key = memory_key(DTEXL_BEST, tiny_config)
    work = ScheduleWork.from_bytes(store.load_work(key))
    store.save_work(key, dataclasses.replace(
        work, stall_cycles=work.stall_cycles + 1000
    ).to_bytes())
    assert runner_over(tiny_config, tmp_path, stream).run(
        "SWa", DTEXL_BEST
    ) != want
    assert reference().run("SWa", DTEXL_BEST) == want


def test_record_bytes_round_trip(tiny_config, tiny_trace):
    work = TraceReplayer(tiny_config).replay_schedule(
        BatchTileStream(tiny_trace), DTEXL_BEST
    )
    data = work.to_bytes()
    loaded = ScheduleWork.from_bytes(data)
    assert loaded == work
    assert loaded.to_bytes() == data
    assert all(
        not array.flags.writeable
        for array in (loaded.tiles, loaded.quads, loaded.stall_cycles)
    )
    for cut in (data[:40], data[:-8], data + b"\0" * 8):
        with pytest.raises(TraceIntegrityError):
            ScheduleWork.from_bytes(cut)
