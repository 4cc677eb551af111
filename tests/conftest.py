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
    something narrower.  A streamed replay holds no whole trace to
    check; test_stream pins its results equal to batch.
    """
    from repro.analysis.lint.sanitizer import TraceSanitizer
    from repro.sim.replay import TraceReplayer
    from repro.sim.stream import BatchTileStream

    original = TraceReplayer.run_stream

    def run_stream(self, stream, design, hierarchy=None):
        result = original(self, stream, design, hierarchy)
        if not isinstance(stream, BatchTileStream):
            return result
        violations = TraceSanitizer(self.config).check(
            stream.trace, result, design
        )
        if violations:
            detail = "; ".join(str(v) for v in violations)
            pytest.fail(
                f"replay of {design.name!r} violated pipeline "
                f"invariant(s): {detail}"
            )
        return result

    monkeypatch.setattr(TraceReplayer, "run_stream", run_stream)


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
