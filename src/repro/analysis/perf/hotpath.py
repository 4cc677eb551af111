"""The hot region: everything the declared entry points can reach.

perfcheck's scope is not "every loop in the repository" — formatting a
results table may allocate all it wants.  The hot region is the set of
functions reachable along archcheck's resolved call graph from the
entry points ``perfcontract.toml`` declares, minus excluded subtrees
(per-frame construction, image-output paths).  Every member carries
one concrete call chain back to its entry point so a finding inside a
helper three calls deep is actionable without re-deriving the path.

Resolution inherits the call graph's conservatism: an unresolvable
call adds no edge, so the region under-approximates.  That is the
right direction for a gate — misses are silent non-edges, never false
alarms — and the entry points themselves pin the loops that matter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Dict, List, Sequence

from repro.analysis.arch.callgraph import CallGraph


@dataclass
class HotRegion:
    """The reachable-from-hot-entry-points function set."""

    #: member qualname -> call chain from its entry point (inclusive).
    chains: Dict[str, List[str]] = field(default_factory=dict)
    #: declared entry points present in the function index.
    entries: List[str] = field(default_factory=list)
    #: declared entry points absent from the function index.
    missing: List[str] = field(default_factory=list)
    #: qualnames pruned by a [hotregion] exclude pattern.
    excluded: List[str] = field(default_factory=list)

    def members(self) -> List[str]:
        return sorted(self.chains)

    def chain_of(self, qualname: str) -> List[str]:
        return self.chains.get(qualname, [])


def _is_excluded(qualname: str, patterns: Sequence[str]) -> bool:
    return any(
        qualname == pattern or fnmatch(qualname, pattern)
        for pattern in patterns
    )


def compute_hot_region(callgraph: CallGraph, entrypoints: Sequence[str],
                       exclude: Sequence[str] = ()) -> HotRegion:
    """Breadth-first walk from each entry point, pruning exclusions.

    The first entry point (in declaration order) to reach a function
    owns its chain; excluded functions are recorded but never visited,
    so their callees stay out unless reachable some other way.
    """
    region = HotRegion()
    excluded: set = set()
    for entry in entrypoints:
        if entry not in callgraph.functions:
            region.missing.append(entry)
            continue
        region.entries.append(entry)
        if entry in region.chains:
            continue
        region.chains[entry] = [entry]
        queue = [entry]
        while queue:
            current = queue.pop(0)
            fn = callgraph.functions[current]
            for callee in sorted(fn.calls):
                if callee in region.chains:
                    continue
                if _is_excluded(callee, exclude):
                    excluded.add(callee)
                    continue
                region.chains[callee] = region.chains[current] + [callee]
                queue.append(callee)
    region.excluded = sorted(excluded)
    return region


def reachable_chains(callgraph: CallGraph,
                     entry: str) -> Dict[str, List[str]]:
    """Unpruned reachability from one entry point (for purity checks)."""
    if entry not in callgraph.functions:
        return {}
    chains: Dict[str, List[str]] = {entry: [entry]}
    queue = [entry]
    while queue:
        current = queue.pop(0)
        for callee in sorted(callgraph.functions[current].calls):
            if callee not in chains:
                chains[callee] = chains[current] + [callee]
                queue.append(callee)
    return chains
