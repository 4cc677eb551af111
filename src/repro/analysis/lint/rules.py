"""The ``replint`` rule set: AST checks tuned to simulator hazards.

Every replay metric this repository reports (L2 accesses, quad
imbalance, speedup) is an exact property of a deterministic quad/texel
access stream.  The rules below target the ways that determinism — or
the conservation invariants behind it — silently breaks:

========================  ====================================================
rule id                   hazard
========================  ====================================================
``wall-clock``            wall-clock reads inside timing-critical packages
                          leak host time into simulated results
``unseeded-random``       module-level ``random`` / ``numpy.random`` calls
                          (no seeded generator) make replays unrepeatable
``unordered-iteration``   iterating a ``set``/``frozenset`` lets hash
                          randomization reorder the access stream
``bare-assert``           ``assert`` vanishes under ``python -O``; library
                          validation must raise the ``repro.errors`` taxonomy
========================  ====================================================

Rules are pure functions of one parsed module: no I/O, no project
imports, stdlib :mod:`ast` only.  Each returns
:class:`~repro.analysis.checks_common.Finding` rows; scoping (which
packages a rule patrols) and suppression comments are the engine's job.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.analysis.checks_common import (
    TIMING_CRITICAL_PACKAGES,
    Finding,
)

__all__ = [
    "ALL_RULES", "RULES_BY_ID", "TIMING_CRITICAL_PACKAGES",
    "ModuleContext", "Rule", "build_import_aliases", "dotted_name",
    "rule_ids",
]

#: Wall-clock entry points (resolved through import aliases).
_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: ``random`` module-level functions (the shared, unseeded global RNG).
#: Instantiating ``random.Random(seed)`` is the sanctioned alternative.
_GLOBAL_RNG_ATTRS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "vonmisesvariate", "paretovariate",
    "weibullvariate", "lognormvariate", "getrandbits", "seed",
})

#: ``numpy.random`` module-level functions (legacy global state).
#: ``numpy.random.default_rng(seed)`` / ``Generator`` are sanctioned.
_NUMPY_RNG_EXEMPT = frozenset({"default_rng", "Generator", "RandomState",
                               "SeedSequence"})

#: Methods that produce a ``set`` whatever the receiver was.
_SET_PRODUCING_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
    "resident_line_set",
})

#: Order-sensitive consumers: feeding them a set is a finding even
#: outside a ``for`` statement.  (``sorted``/``len``/``min``/``max`` are
#: order-insensitive and therefore fine.)
_ORDER_SENSITIVE_CONSUMERS = frozenset({"list", "tuple", "enumerate",
                                        "iter", "sum"})

@dataclass
class ModuleContext:
    """Everything a rule may inspect about one module."""

    path: str
    tree: ast.Module
    #: Whether the module lives in a timing-critical package.
    timing_critical: bool
    #: local alias -> imported dotted name (``np`` -> ``numpy``,
    #: ``monotonic`` -> ``time.monotonic``).
    import_aliases: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    rule_id: str
    summary: str
    #: Restrict the rule to timing-critical packages?
    timing_only: bool
    check: Callable[[ModuleContext], List[Finding]]


def build_import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted import path they resolve to."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = item.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = (
                    f"{node.module}.{item.name}"
                )
    return aliases


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _resolved_call_name(node: ast.Call, ctx: ModuleContext) -> Optional[str]:
    """The fully-resolved dotted name a call targets, if syntactically known."""
    name = dotted_name(node.func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    resolved_head = ctx.import_aliases.get(head, head)
    return f"{resolved_head}.{rest}" if rest else resolved_head


def _finding(ctx: ModuleContext, node: ast.AST, rule_id: str,
             message: str) -> Finding:
    return Finding(
        path=ctx.path,
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0),
        rule=rule_id,
        message=message,
    )


# -- wall-clock ---------------------------------------------------------------

def check_wall_clock(ctx: ModuleContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _resolved_call_name(node, ctx)
        if name in _WALL_CLOCK_CALLS:
            findings.append(_finding(
                ctx, node, "wall-clock",
                f"call to {name}() reads the host clock inside a "
                "timing-critical package; simulated time must come from "
                "the cycle model, never the wall",
            ))
    return findings


# -- unseeded-random ----------------------------------------------------------

def check_unseeded_random(ctx: ModuleContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _resolved_call_name(node, ctx)
        if name is None:
            continue
        parts = name.split(".")
        if (
            parts[0] == "random"
            and len(parts) == 2
            and parts[1] in _GLOBAL_RNG_ATTRS
        ):
            findings.append(_finding(
                ctx, node, "unseeded-random",
                f"{name}() draws from the process-global RNG; construct a "
                "seeded random.Random(seed) and thread it through instead",
            ))
        elif (
            parts[0] == "numpy"
            and len(parts) >= 3
            and parts[1] == "random"
            and parts[2] not in _NUMPY_RNG_EXEMPT
        ):
            findings.append(_finding(
                ctx, node, "unseeded-random",
                f"{name}() uses numpy's legacy global RNG; use "
                "numpy.random.default_rng(seed) instead",
            ))
    return findings


# -- unordered-iteration ------------------------------------------------------

def _is_set_producing(node: ast.AST) -> bool:
    """Whether an expression syntactically evaluates to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in (
            "set", "frozenset"
        ):
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_PRODUCING_METHODS
        ):
            return True
    return False


def check_unordered_iteration(ctx: ModuleContext) -> List[Finding]:
    findings: List[Finding] = []

    def flag(node: ast.AST) -> None:
        findings.append(_finding(
            ctx, node, "unordered-iteration",
            "iteration over a set is hash-order dependent; sort it "
            "(sorted(...)) or keep an ordered container so the replayed "
            "stream is identical on every run",
        ))

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.For) and _is_set_producing(node.iter):
            flag(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                if _is_set_producing(gen.iter):
                    flag(gen.iter)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_SENSITIVE_CONSUMERS
            and node.args
            and _is_set_producing(node.args[0])
        ):
            flag(node.args[0])
    return findings


# -- bare-assert --------------------------------------------------------------

def check_bare_assert(ctx: ModuleContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assert):
            findings.append(_finding(
                ctx, node, "bare-assert",
                "assert is stripped under python -O; library validation "
                "must raise the repro.errors taxonomy "
                "(ConfigError / WorkloadError / InvariantViolationError)",
            ))
    return findings


#: Registry, in reporting order.  ``timing_only`` rules patrol only
#: :data:`TIMING_CRITICAL_PACKAGES`; the rest patrol all library code.
ALL_RULES: List[Rule] = [
    Rule("wall-clock",
         "no host-clock reads in timing-critical packages",
         timing_only=True, check=check_wall_clock),
    Rule("unseeded-random",
         "no process-global RNG use in timing-critical packages",
         timing_only=True, check=check_unseeded_random),
    Rule("unordered-iteration",
         "no iteration over sets in timing-critical packages",
         timing_only=True, check=check_unordered_iteration),
    Rule("bare-assert",
         "no assert-based validation in library code",
         timing_only=False, check=check_bare_assert),
]

RULES_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}


def rule_ids() -> Set[str]:
    return set(RULES_BY_ID)
