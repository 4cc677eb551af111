"""``archcheck``: whole-program layer analysis, plus the shared call graph.

replint (:mod:`repro.analysis.lint`) judges one file at a time; the
pass here judges the program: the import graph against the declared
layer contract (``archcontract.toml``).  Pre-existing violations live
in a justified baseline that only ratchets downward.  Run it with
``python -m repro check --only archcheck``.  The module graph and the
resolved call graph are the machinery faultcheck and perfcheck build on.
"""

from repro.analysis.arch.baseline import Baseline, TODO_JUSTIFICATION
from repro.analysis.arch.callgraph import CallGraph
from repro.analysis.arch.contract import LayerContract, check_layers
from repro.analysis.arch.export import graph_to_dict, graph_to_json, to_dot
from repro.analysis.arch.modgraph import ImportEdge, ModuleGraph, ModuleInfo

__all__ = [
    "Baseline", "TODO_JUSTIFICATION",
    "CallGraph",
    "LayerContract", "check_layers",
    "graph_to_dict", "graph_to_json", "to_dot",
    "ImportEdge", "ModuleGraph", "ModuleInfo",
]
