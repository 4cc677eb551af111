"""faultcheck: whole-program exception-flow and fault-path analysis.

Static companion to the runtime fault-injection harness: recovers the
exception taxonomy from the AST, propagates raised types along
archcheck's call graph, and enforces the six flow contracts the
simulator's resilience story depends on (no swallowed kills, preserved
cause chains, transient-only retries, one-to-one fault-site wiring,
total CLI exit-code mapping, picklable worker submissions).  Run it as
``repro check --only faultcheck``.
"""

from repro.analysis.flow.checks import FlowConfig
from repro.analysis.flow.model import (
    FunctionFlow,
    HandlerSite,
    extract_flows,
    extract_handlers,
)
from repro.analysis.flow.propagate import EscapeAnalysis
from repro.analysis.flow.taxonomy import ExceptionTaxonomy

__all__ = [
    "EscapeAnalysis",
    "ExceptionTaxonomy",
    "FlowConfig",
    "FunctionFlow",
    "HandlerSite",
    "extract_flows",
    "extract_handlers",
]
