"""Shared fixtures: a tiny GPU config and cached frame traces.

Tests run on a 128x64 screen (4x2 tiles of 32x32) so functional renders
take milliseconds.  Traces are session-scoped: pass 1 runs once per
workload and every replay test reuses it, exactly as the experiment
runner does.
"""

from __future__ import annotations

import pytest

from repro.config import GPUConfig
from repro.sim.driver import FrameRenderer, FrameTrace
from repro.workloads.games import build_game
from repro.workloads.recipe import SceneRecipe

try:
    from hypothesis import settings

    # One pinned, derandomized profile so property tests explore the
    # same cases on every machine and every CI run — a flaky shrink is
    # a repro, not a lottery ticket.  deadline=None because the shared
    # CI runners stall unpredictably, not because the code may dawdle.
    settings.register_profile(
        "repro-deterministic", derandomize=True, deadline=None,
    )
    settings.load_profile("repro-deterministic")
except ImportError:  # pragma: no cover - hypothesis is a dev extra
    pass


@pytest.fixture(autouse=True)
def sanitize_every_replay(monkeypatch):
    """Auto-sanitize every successful batch replay the suite performs.

    Wraps :meth:`TraceReplayer.run_stream`, which every replay goes
    through (``TraceReplayer.run`` and ``ExperimentRunner.run`` alike),
    so each trace/result pair the tests produce is walked by the
    :class:`TraceSanitizer`; a replay that silently breaks a pipeline
    invariant fails its test even when the test itself only asserted
    something narrower.  A batch runner's replay whose memory half was
    looked up opens no stream, so :meth:`ExperimentRunner.run` is
    wrapped too and checks it against the trace the runner keeps.  A
    streamed replay holds no whole trace to check, and neither does a
    store hit of a runner that never loaded its trace; test_stream and
    test_schedule_records pin their results equal to batch ones.
    """
    from repro.analysis.lint.sanitizer import TraceSanitizer
    from repro.sim.experiment import ExperimentRunner
    from repro.sim.replay import TraceReplayer
    from repro.sim.stream import BatchTileStream

    original_stream = TraceReplayer.run_stream
    original_run = ExperimentRunner.run
    checked = []

    def sanitize(config, trace, result, design):
        checked.append(design)
        violations = TraceSanitizer(config).check(trace, result, design)
        if violations:
            detail = "; ".join(str(v) for v in violations)
            pytest.fail(
                f"replay of {design.name!r} violated pipeline "
                f"invariant(s): {detail}"
            )

    def run_stream(self, stream, design, hierarchy=None, memo=None):
        opened = [stream]
        if callable(stream):
            factory = stream

            def stream():
                opened[0] = factory()
                return opened[0]

        result = original_stream(self, stream, design, hierarchy, memo)
        if isinstance(opened[0], BatchTileStream):
            sanitize(self.config, opened[0].trace, result, design)
        return result

    def run(self, alias, design):
        checked.clear()
        result = original_run(self, alias, design)
        trace = self._traces.get(alias)
        if not checked and self.stream == "batch" and trace is not None:
            sanitize(self.replayer.config, trace, result, design)
        return result

    monkeypatch.setattr(TraceReplayer, "run_stream", run_stream)
    monkeypatch.setattr(ExperimentRunner, "run", run)


@pytest.fixture(scope="session")
def tiny_config() -> GPUConfig:
    """4x2 tiles — big enough for every tile order, small enough to fly."""
    return GPUConfig(screen_width=128, screen_height=64)


@pytest.fixture(scope="session")
def small_config() -> GPUConfig:
    """8x4 tiles — used where tile-order structure needs more room."""
    return GPUConfig(screen_width=256, screen_height=128)


@pytest.fixture(scope="session")
def tiny_workload(tiny_config):
    """A small deterministic scene with real overdraw and textures."""
    recipe = SceneRecipe(
        name="tiny",
        seed=7,
        is_3d=False,
        texture_budget_mib=0.3,
        depth_complexity=2.0,
        blend_fraction=0.2,
        sprite_size=(0.2, 0.5),
    )
    return recipe.build(tiny_config)


@pytest.fixture(scope="session")
def tiny_trace(tiny_config, tiny_workload) -> FrameTrace:
    trace, _ = FrameRenderer(tiny_config).render(tiny_workload)
    return trace


@pytest.fixture(scope="session")
def small_game_trace(small_config) -> FrameTrace:
    """One real suite game rendered at the small scale."""
    workload = build_game("GTr", small_config)
    trace, _ = FrameRenderer(small_config).render(workload)
    return trace
