"""Span recorder for the benchmark's traced (per-layer) run.

The traced run patches each layer's entry point with a wrapper that
records one span per call: name, start, end and the span that was open
when the call began (its parent).  Spans stay in memory and are written
as Chrome trace-event JSON when the run ends (open the file in
chrome://tracing or Perfetto).  From the same spans the run derives
each layer's *self time* -- its spans' durations minus the part covered
by their child spans -- and the per-layer work counts attached to them.

Two wrapped calls have no public boundary in the program:

* ``TraceReplayer._tile_quads_fast`` -- the L1/L2/DRAM simulation is
  inlined into it;
* ``sweep._replay_task`` -- the process-pool task.  The pool forks, so
  the patched module is inherited by the workers; each task appends the
  spans its worker recorded to a per-pid file that the parent merges
  after the sweep.

Patching lasts only for the traced cycles: ``disarm()`` restores every
original attribute, and a traced run produces the same results as an
untraced one (the benchmark's tests compare their digests).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence

# Span record fields (a list per span keeps the per-call cost low).
NAME, START, END, PARENT, PID, COUNTS = range(6)

#: Span name of the benchmark's own correctness checks inside a timed
#: body.  Their time is excluded from the body clock, so it is excluded
#: from every layer and from the orchestration remainder as well.
CHECK_SPAN = "bench.check"


def _frame_counts(trace_and_image) -> dict:
    stats = trace_and_image[0].stats
    return {"render.frames": 1, "render.z_cull_sum": stats.z_cull_rate}


def _stream_counts(stream) -> dict:
    stats = stream.stats
    if stats is None:  # the chunk-store path keeps no RenderStats
        return {}
    return {"render.frames": 1, "render.z_cull_sum": stats.z_cull_rate}


def _footprint_counts(quads_by_tile) -> dict:
    quads = lines = 0
    for tile_quads in quads_by_tile.values():
        quads += len(tile_quads)
        for quad in tile_quads:
            lines += len(quad.texture_lines)
    return {"texture.quads": quads, "texture.lines": lines}


def _replay_counts(result) -> dict:
    timing = result.timing
    return {
        "replay.runs": 1,
        "replay.quads": result.total_quads,
        "memory.l1_accesses": result.l1_accesses,
        "memory.l1_misses": result.l1_misses,
        "memory.l2_accesses": result.l2_accesses,
        "memory.l2_misses": result.l2_misses,
        "memory.dram_accesses": result.dram_accesses,
        "raster.sim_cycles": timing.total_cycles,
        "raster.sc_issue_cycles": sum(timing.sc_issue_cycles),
        "raster.sc_capacity_cycles": (
            len(timing.sc_issue_cycles) * timing.total_cycles
        ),
    }


def _animation_counts(result) -> dict:
    return {"animation.runs": 1, "animation.warmup_sum": result.warmup_ratio()}


#: Every wrapped entry point: ``(module:Class or module, attribute,
#: span name, counter)``.  A counter maps the call's result to work
#: counts attached to its span; for a generator it receives the
#: generator's first argument once the generator is exhausted.
ENTRY_POINTS = (
    ("repro.geometry.vertex_stage:VertexStage", "run_batch",
     "geometry.vertex", lambda r: {"geometry.vertices": len(r)}),
    ("repro.geometry.primitive_assembly:PrimitiveAssembler", "assemble_batch",
     "geometry.assembly", lambda r: {"geometry.primitives": len(r)}),
    ("repro.sim.driver", "clip_batch", "geometry.clip", None),
    ("repro.sim.driver", "setup_draw_batch", "raster.setup", None),
    ("repro.tiling.polygon_list_builder:PolygonListBuilder", "build_fast",
     "tiling.binning", None),
    ("repro.tiling.tile_fetcher:TileFetcher", "fetch_lines_fast",
     "tiling.fetch", lambda r: {"tiling.tiles": 1}),
    ("repro.raster.rasterizer:Rasterizer", "rasterize_tile_fast",
     "raster.rasterize", None),
    ("repro.raster.rasterizer:Rasterizer", "finalize_quads_fast",
     "texture.footprint", _footprint_counts),
    ("repro.sim.driver:FrameRenderer", "render", "sim.render", _frame_counts),
    ("repro.sim.driver:FrameRenderer", "begin_tiles", "sim.render", None),
    ("repro.core.dtexl:DTexLConfig", "build_scheduler", "core.scheduler", None),
    ("repro.core.scheduler:QuadScheduler", "core_lut", "core.scheduler", None),
    ("repro.sim.replay:TraceReplayer", "_tile_quads_fast",
     "memory.quad_loop", None),
    ("repro.memory.hierarchy:MemoryHierarchy", "vertex_access_lines",
     "memory.prologue", None),
    ("repro.memory.hierarchy:MemoryHierarchy", "tile_access_lines",
     "memory.prologue", None),
    ("repro.sim.driver:TileTraceEntry", "quad_stream", "sim.quad_stream", None),
    ("repro.raster.pipeline:RasterPipelineModel", "simulate",
     "raster.timing", None),
    ("repro.power.energy_model:EnergyModel", "frame_energy",
     "power.energy", None),
    ("repro.sim.replay:TraceReplayer", "run_stream", "sim.replay",
     _replay_counts),
    ("repro.sim.stream:StreamingTileStream", "__iter__", "stream",
     _stream_counts),
    ("repro.sim.checkpoint:TileChunkStore", "save_tile",
     "checkpoint.chunk_save", lambda r: {"checkpoint.chunk_saves": 1}),
    ("repro.sim.checkpoint:TileChunkStore", "load_tile",
     "checkpoint.chunk_load",
     lambda r: {"checkpoint.chunk_loads": 1,
                "checkpoint.chunk_hits": int(r is not None)}),
    ("repro.sim.checkpoint:SweepProgress", "record", "checkpoint.journal",
     None),
    ("repro.sim.multiframe:AnimationSimulator", "run", "sim.animation",
     _animation_counts),
    ("repro.sim.sweep", "_replay_task", "sweep.task", None),
)

#: Entry points whose wrapper flushes the worker's spans after each call.
POOL_TASKS = {("repro.sim.sweep", "_replay_task")}


class Tracer:
    """In-memory span recorder with per-call entry-point patching.

    ``arm()`` patches every entry point in :data:`ENTRY_POINTS`;
    ``disarm()`` restores the originals.  Spans recorded by forked pool
    workers go through ``spool_dir`` and are folded in by
    :meth:`merge_workers`.
    """

    def __init__(self, spool_dir: Path):
        self.pid = os.getpid()
        self.spool_dir = Path(spool_dir)
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        #: Counts recorded outside any span (e.g. bytes on disk).
        self.counters: Dict[str, float] = defaultdict(float)
        #: While set, wrapped calls run unrecorded (the benchmark's own
        #: checks, which show up as one :data:`CHECK_SPAN` instead).
        self.suspended = False

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        stack = self._stack
        index = len(self.spans)
        self.spans.append(
            [name, perf_counter(), None, stack[-1] if stack else None,
             self.pid, None]
        )
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    @contextmanager
    def check_span(self):
        """One :data:`CHECK_SPAN`; wrapped calls inside it go unrecorded."""
        with self.span(CHECK_SPAN):
            self.suspended = True
            try:
                yield
            finally:
                self.suspended = False

    def count(self, key: str, value: float) -> None:
        self.counters[key] += value

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, counter, pool_task: bool):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if tracer.suspended:
                    return (yield from inner)
                try:
                    while True:
                        index = tracer._open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            tracer._close(index)
                            if counter is not None:
                                tracer.spans[index][COUNTS] = counter(args[0])
                            return
                        except BaseException:
                            tracer._close(index)
                            raise
                        tracer._close(index)
                        yield item
                finally:
                    inner.close()

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.suspended:
                return fn(*args, **kwargs)
            if pool_task:
                tracer._enter_worker()
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
                if pool_task:
                    tracer._flush_worker()
            if counter is not None:
                tracer.spans[index][COUNTS] = counter(result)
            return result

        return wrapper

    def arm(self, entry_points: Sequence[tuple] = ENTRY_POINTS) -> None:
        """Patch every entry point (idempotent per tracer)."""
        if self._patches:
            return
        for owner_path, attr, name, counter in entry_points:
            module_name, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = inspect.getattr_static(owner, attr)
            fn = original
            kind = None
            if isinstance(original, (staticmethod, classmethod)):
                kind = type(original)
                fn = original.__func__
            wrapped = self._wrap(
                fn, name, counter, (owner_path, attr) in POOL_TASKS
            )
            setattr(owner, attr, kind(wrapped) if kind else wrapped)
            self._patches.append((owner, attr, original))

    def disarm(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- forked pool workers -------------------------------------------------

    def _enter_worker(self) -> None:
        pid = os.getpid()
        if pid != self.pid:
            # First task in a forked worker: drop the parent's spans.
            self.pid = pid
            self.spans = []
            self._stack = []

    def _flush_worker(self) -> None:
        if self._stack or not self.spans:
            return
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        path = self.spool_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="ascii") as handle:
            handle.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def merge_workers(self) -> None:
        """Fold every spooled worker batch into this (parent) tracer."""
        if not self.spool_dir.is_dir():
            return
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path, encoding="ascii") as handle:
                for line in handle:
                    batch = json.loads(line)
                    offset = len(self.spans)
                    for span in batch:
                        if span[PARENT] is not None:
                            span[PARENT] += offset
                        self.spans.append(span)
            path.unlink()

    # -- output ------------------------------------------------------------

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans as Chrome trace-event JSON."""
        t0 = min((s[START] for s in self.spans), default=0.0)
        events = [
            {
                "name": s[NAME], "ph": "X", "pid": s[PID], "tid": s[PID],
                "ts": round((s[START] - t0) * 1e6, 3),
                "dur": round((s[END] - s[START]) * 1e6, 3),
                "args": s[COUNTS] or {},
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}), encoding="ascii")


def self_times(
    spans: Sequence[list], pid: Optional[int] = None
) -> Dict[str, float]:
    """Per span name: summed duration minus the time covered by children.

    With ``pid``, only that process's spans are summed.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += span[END] - span[START]
    totals: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        if pid is None or span[PID] == pid:
            totals[span[NAME]] += span[END] - span[START] - child[index]
    return dict(totals)


def outermost_time(
    spans: Sequence[list], names: Iterable[str], within: Optional[str] = None
) -> float:
    """Summed duration of spans in ``names`` with no ancestor in ``names``.

    With ``within``, only spans that have an ancestor named ``within``
    count -- e.g. the render work a streamed replay does inside itself.
    """
    names = set(names)
    total = 0.0
    for span in spans:
        if span[NAME] not in names:
            continue
        parent = span[PARENT]
        nested = inside = False
        while parent is not None:
            ancestor = spans[parent]
            nested |= ancestor[NAME] in names
            inside |= ancestor[NAME] == within
            parent = ancestor[PARENT]
        if not nested and (within is None or inside):
            total += span[END] - span[START]
    return total


def summed_counts(spans: Sequence[list]) -> Dict[str, float]:
    """Every span's work counts, summed by key."""
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        for key, value in (span[COUNTS] or {}).items():
            totals[key] += value
    return dict(totals)
