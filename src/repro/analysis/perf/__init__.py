"""perfcheck: whole-program hot-path performance analysis.

Static companion to the perf-smoke benchmark: resolves archcheck's
call graph, walks the hot region from the entry points
``perfcontract.toml`` declares (the fast replay path, the cache access
loops, quad emission), and enforces the rules that keep the fast
engine fast — no allocation in hot loops, attribute chains hoisted to
locals, no exception machinery in the per-quad path, fast/reference
engine disjointness, declared loop-depth bounds, and a contract-drift
check so the declared hot set can't silently rot.  Run it as
``repro check --only perfcheck``.
"""

from repro.analysis.perf.checks import (
    HotScan,
    check_contract_drift,
    check_engine_purity,
    check_hot_loops,
    check_loop_depth,
    check_profile,
    scan_function,
)
from repro.analysis.perf.contract import PerfContract, PerfEntry
from repro.analysis.perf.export import hot_region_to_dot
from repro.analysis.perf.hotpath import (
    HotRegion,
    compute_hot_region,
    reachable_chains,
)

__all__ = [
    "HotRegion",
    "HotScan",
    "PerfContract",
    "PerfEntry",
    "check_contract_drift",
    "check_engine_purity",
    "check_hot_loops",
    "check_loop_depth",
    "check_profile",
    "compute_hot_region",
    "hot_region_to_dot",
    "reachable_chains",
    "scan_function",
]
