"""Simulator correctness tooling: static lint + runtime sanitizer.

Two complementary guards over the claim every figure rests on — that
replay metrics are exact properties of a deterministic access stream:

* ``replint`` (:mod:`engine`, :mod:`rules`): an AST-based static pass
  with rules tuned to simulator hazards (wall-clock reads, unseeded
  RNGs, set iteration, bare asserts).
  Run it with ``python -m repro check --only lint``.
* :class:`TraceSanitizer` (:mod:`sanitizer`): a runtime checker that
  walks a trace/replay pair and verifies quad conservation, cycle
  monotonicity, cache-counter consistency, barrier ordering and
  checkpoint-hash agreement.  Run it with ``python -m repro sanitize``.
"""

from repro.analysis.checks_common import (
    Finding,
    findings_payload,
    format_text,
    sort_findings,
)
from repro.analysis.lint.engine import LintEngine, lint_paths
from repro.analysis.lint.rules import (
    ALL_RULES,
    RULES_BY_ID,
    TIMING_CRITICAL_PACKAGES,
    Rule,
    rule_ids,
)
from repro.analysis.lint.sanitizer import (
    TraceSanitizer,
    Violation,
    trace_digest,
)

__all__ = [
    "LintEngine", "lint_paths",
    "Finding", "findings_payload", "format_text", "sort_findings",
    "ALL_RULES", "RULES_BY_ID", "TIMING_CRITICAL_PACKAGES", "Rule",
    "rule_ids",
    "TraceSanitizer", "Violation", "trace_digest",
]
