"""Reuse-distance (stack-distance) analysis of texture access streams.

The classic LRU stack-distance tool: for a trace of cache-line accesses,
the *reuse distance* of an access is the number of **distinct** lines
touched since the previous access to the same line (infinity for cold
accesses).  For a fully-associative LRU cache of ``C`` lines, an access
hits iff its reuse distance is < ``C`` — so one histogram predicts the
hit rate of *every* capacity at once.

DTexL's story in these terms: fine-grained quad interleaving stretches
each SC's reuse distances (neighbouring quads that would re-touch a line
immediately are sent to other cores), pushing them past the 256-line L1;
coarse-grained grouping compresses them back under it.  The
``ablation_reuse`` bench plots exactly that shift.

The implementation uses the standard O(N log N) Fenwick-tree algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional


class _Fenwick:
    """Binary indexed tree over access timestamps."""

    def __init__(self, size: int):
        self.size = size
        self.tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        index += 1
        while index <= self.size:
            self.tree[index] += delta
            index += index & -index

    def prefix_sum(self, index: int) -> int:
        """Sum of entries [0, index]."""
        index += 1
        total = 0
        while index > 0:
            total += self.tree[index]
            index -= index & -index
        return total


@dataclass
class ReuseProfile:
    """Reuse-distance histogram of one access stream."""

    #: histogram[d] = number of accesses with reuse distance exactly d.
    histogram: Dict[int, int] = field(default_factory=dict)
    cold_accesses: int = 0
    total_accesses: int = 0

    def hit_rate(self, capacity_lines: int) -> float:
        """Predicted hit rate of a fully-associative LRU of that size."""
        if self.total_accesses == 0:
            return 0.0
        hits = sum(
            count for distance, count in self.histogram.items()
            if distance < capacity_lines
        )
        return hits / self.total_accesses

    def working_set(self, coverage: float = 0.9) -> int:
        """Smallest capacity whose predicted hit rate covers ``coverage``
        of all *reused* accesses."""
        reused = self.total_accesses - self.cold_accesses
        if reused <= 0:
            return 0
        needed = coverage * reused
        running = 0
        for distance in sorted(self.histogram):
            running += self.histogram[distance]
            if running >= needed:
                return distance + 1
        return max(self.histogram, default=0) + 1

    def mean_distance(self) -> float:
        """Mean finite reuse distance."""
        reused = self.total_accesses - self.cold_accesses
        if reused == 0:
            return 0.0
        return (
            sum(d * c for d, c in self.histogram.items()) / reused
        )

    def merge(self, other: "ReuseProfile") -> "ReuseProfile":
        merged = dict(self.histogram)
        for distance, count in other.histogram.items():
            merged[distance] = merged.get(distance, 0) + count
        return ReuseProfile(
            histogram=merged,
            cold_accesses=self.cold_accesses + other.cold_accesses,
            total_accesses=self.total_accesses + other.total_accesses,
        )


def reuse_profile(stream: Iterable[int]) -> ReuseProfile:
    """Compute the reuse-distance histogram of a line-address stream."""
    accesses = list(stream)
    profile = ReuseProfile(total_accesses=len(accesses))
    if not accesses:
        return profile
    tree = _Fenwick(len(accesses))
    last_seen: Dict[int, int] = {}
    distinct_in_tree = 0
    for timestamp, line in enumerate(accesses):
        previous = last_seen.get(line)
        if previous is None:
            profile.cold_accesses += 1
        else:
            # Distinct lines touched strictly after ``previous``.
            distance = distinct_in_tree - tree.prefix_sum(previous)
            profile.histogram[distance] = (
                profile.histogram.get(distance, 0) + 1
            )
            tree.add(previous, -1)
            distinct_in_tree -= 1
        tree.add(timestamp, 1)
        distinct_in_tree += 1
        last_seen[line] = timestamp
    return profile


def per_core_reuse_profiles(
    trace,
    scheduler,
    num_cores: Optional[int] = None,
) -> List[ReuseProfile]:
    """Per-SC texture reuse profiles of a frame trace under a schedule.

    Walks the trace in the scheduler's tile order and splits each quad's
    texture lines onto its assigned core's stream, then profiles each
    stream independently — the per-L1 view of locality.
    """
    cores = num_cores or scheduler.config.num_shader_cores
    streams: List[List[int]] = [[] for _ in range(cores)]
    for step, tile in enumerate(scheduler.tiles):
        entry = trace.tiles.get(tile)
        if entry is None:
            continue
        perm = scheduler.permutation_at(step)
        for quad in entry.quads:
            core = perm[scheduler.slot_of(quad.qx, quad.qy)] % cores
            streams[core].extend(quad.texture_lines)
    return [reuse_profile(stream) for stream in streams]
