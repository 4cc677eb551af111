"""``archcheck``: whole-program layer, call-graph and API analysis.

replint (:mod:`repro.analysis.lint`) judges one file at a time; the
passes here judge the program: the import graph against the declared
layer contract (``archcontract.toml``), import cycles, the call graph
from timing-critical entry points down to shared-state mutations, and
the export surface (dead and undeclared API).  Pre-existing violations
live in a justified baseline that only ratchets downward.  Run it with
``python -m repro check --only archcheck``.
"""

from repro.analysis.arch.baseline import Baseline, TODO_JUSTIFICATION
from repro.analysis.arch.callgraph import (
    CallGraph,
    Mutation,
    check_timing_critical_mutations,
)
from repro.analysis.arch.contract import (
    LayerContract,
    check_cycles,
    check_layers,
)
from repro.analysis.arch.deadcode import (
    check_dead_exports,
    check_undeclared_exports,
)
from repro.analysis.arch.export import graph_to_dict, graph_to_json, to_dot
from repro.analysis.arch.modgraph import ImportEdge, ModuleGraph, ModuleInfo

__all__ = [
    "Baseline", "TODO_JUSTIFICATION",
    "CallGraph", "Mutation", "check_timing_critical_mutations",
    "LayerContract", "check_cycles", "check_layers",
    "check_dead_exports", "check_undeclared_exports",
    "graph_to_dict", "graph_to_json", "to_dot",
    "ImportEdge", "ModuleGraph", "ModuleInfo",
]
