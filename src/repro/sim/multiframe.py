"""Multi-frame (animation) simulation with warm caches.

Renders each frame of an :class:`~repro.workloads.animation.Animation`
through pass 1 and replays them back to back against **one persistent
memory hierarchy**, so frame *k+1* starts with whatever texture lines
frame *k* left resident.  Per-frame results are counter deltas, so the
sequence exposes the cold-start penalty of frame 0 and the steady-state
behaviour afterwards.

Each frame is rendered once and replayed once, so there is nothing to
cache between passes: every frame is a plain ``render`` followed by a
``run`` on the shared hierarchy, and its trace is dropped before the
next frame renders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.config import GPUConfig
from repro.core.dtexl import DTexLConfig
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.driver import FrameRenderer
from repro.sim.replay import RunResult, TraceReplayer
from repro.workloads.animation import Animation


@dataclass
class AnimationResult:
    """Per-frame results of one animated run."""

    design_point: str
    frames: List[RunResult] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return sum(f.frame_cycles for f in self.frames)

    @property
    def total_l2_accesses(self) -> int:
        return sum(f.l2_accesses for f in self.frames)

    def fps(self, frequency_mhz: int) -> float:
        """Average frames per second over the sequence."""
        if not self.frames or self.total_cycles == 0:
            return float("inf")
        return len(self.frames) * frequency_mhz * 1e6 / self.total_cycles

    def warmup_ratio(self) -> float:
        """First frame's L2 accesses over the mean of the later frames.

        > 1 means warm caches across frames are paying off.
        """
        if len(self.frames) < 2:
            return 1.0
        later = self.frames[1:]
        steady = sum(f.l2_accesses for f in later) / len(later)
        if steady == 0:
            return 1.0
        return self.frames[0].l2_accesses / steady


class AnimationSimulator:
    """Runs an animation under one design point with persistent caches."""

    def __init__(self, config: GPUConfig):
        self.config = config
        self.renderer = FrameRenderer(config)
        self.replayer = TraceReplayer(config)

    def run(
        self,
        animation: Animation,
        design: DTexLConfig,
        cold_caches_each_frame: bool = False,
    ) -> AnimationResult:
        """Simulate every frame; caches persist unless asked otherwise."""
        gpu = design.effective_gpu_config(self.config)
        hierarchy = MemoryHierarchy(gpu)
        result = AnimationResult(design_point=design.name)
        for frame in range(animation.num_frames):
            if cold_caches_each_frame:
                hierarchy.reset()
            trace, _ = self.renderer.render(
                animation.recipe.build(self.config, frame=frame)
            )
            result.frames.append(
                self.replayer.run(trace, design, hierarchy=hierarchy)
            )
            # Released before the next render, so the run holds one
            # frame's trace at a time.
            del trace
        return result
