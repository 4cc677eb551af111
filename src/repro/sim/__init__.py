"""Frame simulation: functional render (pass 1) and trace replay (pass 2).

Pass 1 runs the real Graphics Pipeline once per workload and records a
schedule-independent frame trace; pass 2 replays the trace under any
DTexL design point — caches, timing and energy — which makes the
evaluation sweeps cheap.
"""

from repro.sim.driver import FrameRenderer, FrameTrace, RenderStats, TileTraceEntry
from repro.sim.replay import RunResult, TraceReplayer
from repro.sim.stream import (
    STREAM_DRIVERS,
    BatchTileStream,
    StreamingTileStream,
    TileWorkUnit,
)
from repro.sim.experiment import ExperimentRunner, SuiteResult
from repro.sim.checkpoint import (
    TileChunkStore,
    trace_digest,
    trace_key,
    verify_trace,
)
from repro.sim.resilience import (
    FailureRecord,
    ReplayBudget,
    RetryPolicy,
    RunManifest,
)
from repro.sim.faults import FaultPlan, FaultSpec, fault_point
from repro.sim.chaos import ChaosReport, ChaosTrial, run_chaos

__all__ = [
    "FrameRenderer", "FrameTrace", "RenderStats", "TileTraceEntry",
    "TraceReplayer", "RunResult",
    "STREAM_DRIVERS", "BatchTileStream", "StreamingTileStream",
    "TileWorkUnit",
    "ExperimentRunner", "SuiteResult",
    "TileChunkStore",
    "trace_digest", "trace_key", "verify_trace",
    "FailureRecord", "ReplayBudget", "RetryPolicy", "RunManifest",
    "FaultPlan", "FaultSpec", "fault_point",
    "ChaosReport", "ChaosTrial", "run_chaos",
]
