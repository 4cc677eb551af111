"""The per-function hot-path rules and the contract-drift checks.

Every function in the hot region gets one AST scan that tracks lexical
loop depth and collects two families of evidence:

* **allocations** — list/dict/set/tuple literals, comprehensions,
  generator expressions, f-strings, string concatenation, closures and
  ``np.append`` calls executed inside a loop body.  CPython realities
  are encoded as exemptions: all-constant tuples fold to
  ``LOAD_CONST``, tuples in a subscript's slice are the idiomatic
  (and unavoidable) numpy index form, and small unpack-assign tuples
  (``a, b = x, y`` up to three elements) compile to register shuffles.
* **unhoisted attribute chains** — ``self.a.b`` / ``obj.a.b`` loads of
  two or more attributes inside a loop whose root name is never
  rebound in the function: each iteration pays the full lookup chain
  for a value that a one-line hoist makes a local.

A ``raise`` is skipped together with its payload: the f-string of an
error message is built once, on the way out of the loop, not per
iteration.

Loop depth is counted the way CPython evaluates, not the way the
source indents: a ``for`` statement's iterable and target run once per
entry to the loop (the *enclosing* depth), while a ``while`` test runs
every iteration; comprehension bodies run per element, but the first
generator's iterable is evaluated once where the comprehension stands.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.arch.callgraph import CallGraph
from repro.analysis.checks_common import Finding
from repro.analysis.perf.contract import PerfContract
from repro.analysis.perf.hotpath import HotRegion, reachable_chains

#: allocation call targets flagged by dotted name.
_ALLOCATING_CALLS = frozenset({"np.append", "numpy.append"})


@dataclass
class _Site:
    kind: str
    line: int
    col: int
    detail: str = ""


@dataclass
class HotScan:
    """Everything one pass over a function body collected."""

    allocations: List[_Site] = field(default_factory=list)
    chains: List[_Site] = field(default_factory=list)
    max_loop_depth: int = 0


def _rebound_names(fn_node: ast.AST) -> set:
    """Every name the function body stores to (loop targets included)."""
    rebound = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            rebound.add(node.id)
        elif isinstance(node, ast.withitem) and isinstance(
            node.optional_vars, ast.Name
        ):
            rebound.add(node.optional_vars.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                rebound.add(alias.asname or alias.name.split(".")[0])
    return rebound


def _pure_chain(node: ast.Attribute) -> Optional[Tuple[str, int, str]]:
    """``(root, attr_count, dotted)`` for a Name-rooted attribute chain."""
    parts = []
    current: ast.AST = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    parts.reverse()
    return current.id, len(parts) - 1, ".".join(parts)


def _is_str_operand(node: ast.AST) -> bool:
    return isinstance(node, ast.JoinedStr) or (
        isinstance(node, ast.Constant) and isinstance(node.value, str)
    )


class _Scanner:
    """One recursive descent over a function body, tracking loop depth."""

    def __init__(self, rebound: set):
        self.rebound = rebound
        self.result = HotScan()

    # -- recording -------------------------------------------------------

    def _alloc(self, node: ast.AST, kind: str, detail: str = "") -> None:
        self.result.allocations.append(_Site(
            kind=kind, line=node.lineno, col=node.col_offset, detail=detail,
        ))

    # -- traversal -------------------------------------------------------
    #
    # ``depth`` counts enclosing For/While statements; ``comp`` counts
    # enclosing comprehension *element* positions.  Allocations gate on
    # depth alone: a statement-level comprehension is the blessed form
    # of bulk construction, so the tuples it builds per element are not
    # findings (the fix for an allocating loop IS a comprehension), and
    # a comprehension nested in a loop is already reported once as a
    # whole.  Attribute chains gate on depth + comp: a chain re-resolved
    # per element is worth hoisting wherever the comprehension stands.

    def scan(self, fn_node: ast.AST) -> HotScan:
        for child in ast.iter_child_nodes(fn_node):
            self._visit(child, 0, 0)
        return self.result

    def _visit_all(self, nodes: Sequence[ast.AST], depth: int,
                   comp: int) -> None:
        for node in nodes:
            self._visit(node, depth, comp)

    def _visit_children(self, node: ast.AST, depth: int, comp: int) -> None:
        for child in ast.iter_child_nodes(node):
            self._visit(child, depth, comp)

    def _visit(self, node: ast.AST, depth: int, comp: int) -> None:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            # iterable and target evaluate once per loop *entry*.
            self.result.max_loop_depth = max(
                self.result.max_loop_depth, depth + 1
            )
            self._visit(node.iter, depth, comp)
            self._visit(node.target, depth, comp)
            self._visit_all(node.body, depth + 1, comp)
            self._visit_all(node.orelse, depth + 1, comp)
            return
        if isinstance(node, ast.While):
            # the test re-evaluates every iteration.
            self.result.max_loop_depth = max(
                self.result.max_loop_depth, depth + 1
            )
            self._visit(node.test, depth + 1, comp)
            self._visit_all(node.body, depth + 1, comp)
            self._visit_all(node.orelse, depth + 1, comp)
            return
        if isinstance(node, ast.Raise):
            # an error path runs once, on the way out: not per iteration.
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            if depth >= 1:
                self._alloc(node, "closure")
                return
            body = node.body if isinstance(node.body, list) else [node.body]
            self._visit_all(body, 0, 0)
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            if depth >= 1:
                kind = ("generator-expression"
                        if isinstance(node, ast.GeneratorExp)
                        else "comprehension")
                self._alloc(node, kind)
            # first iterable runs once where the comprehension stands;
            # everything else runs per element.
            for i, gen in enumerate(node.generators):
                self._visit(gen.iter, depth, comp if i == 0 else comp + 1)
                self._visit_all(gen.ifs, depth, comp + 1)
            if isinstance(node, ast.DictComp):
                self._visit(node.key, depth, comp + 1)
                self._visit(node.value, depth, comp + 1)
            else:
                self._visit(node.elt, depth, comp + 1)
            return
        if isinstance(node, ast.Assign):
            self._visit_all(node.targets, depth, comp)
            value = node.value
            if (
                isinstance(value, ast.Tuple)
                and len(value.elts) <= 3
                and any(isinstance(t, (ast.Tuple, ast.List))
                        for t in node.targets)
            ):
                # a, b = x, y compiles to a register shuffle, no tuple.
                self._visit_all(value.elts, depth, comp)
            else:
                self._visit(value, depth, comp)
            return
        if isinstance(node, ast.Subscript):
            self._visit(node.value, depth, comp)
            if isinstance(node.slice, ast.Tuple):
                # u[iy, ix] — the index tuple is the idiomatic numpy
                # form; there is nothing to hoist it into.
                self._visit_all(node.slice.elts, depth, comp)
            else:
                self._visit(node.slice, depth, comp)
            return
        if depth >= 1 and comp == 0:
            if isinstance(node, ast.List):
                self._alloc(node, "list-literal")
            elif isinstance(node, ast.Dict):
                self._alloc(node, "dict-literal")
            elif isinstance(node, ast.Set):
                self._alloc(node, "set-literal")
            elif isinstance(node, ast.Tuple) and isinstance(
                node.ctx, ast.Load
            ):
                if not all(isinstance(e, ast.Constant) for e in node.elts):
                    self._alloc(node, "tuple-literal")
                self._visit_all(node.elts, depth, comp)
                return
            elif isinstance(node, ast.JoinedStr):
                self._alloc(node, "fstring")
                return
            elif isinstance(node, ast.BinOp) and isinstance(
                node.op, ast.Add
            ) and (_is_str_operand(node.left)
                   or _is_str_operand(node.right)):
                self._alloc(node, "str-concat")
        if depth + comp >= 1:
            if isinstance(node, ast.Call):
                self._visit_call(node)
                self._visit_children(node, depth, comp)
                return
            if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                chain = _pure_chain(node)
                if chain is not None:
                    root, attrs, dotted = chain
                    if attrs >= 2 and root not in self.rebound:
                        self.result.chains.append(_Site(
                            kind="chain", line=node.lineno,
                            col=node.col_offset, detail=dotted,
                        ))
                    return  # maximal chains only; sub-chains are implied
        self._visit_children(node, depth, comp)

    def _visit_call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute):
            chain = _pure_chain(node.func)
            if chain is not None and chain[2] in _ALLOCATING_CALLS:
                self._alloc(node, "np.append", detail=chain[2])


def scan_function(fn_node: ast.AST) -> HotScan:
    """Scan one function body for hot-loop evidence."""
    return _Scanner(_rebound_names(fn_node)).scan(fn_node)


# -- the checks ---------------------------------------------------------------


def _via(region: HotRegion, qualname: str) -> str:
    chain = region.chain_of(qualname)
    if len(chain) <= 1:
        return qualname
    return " -> ".join(chain)


def check_hot_loops(callgraph: CallGraph,
                    region: HotRegion) -> List[Finding]:
    """Allocation and attribute-chain rules over the region.

    Findings aggregate per ``(function, kind)`` — one waiver covers one
    deliberate pattern in one function, and fixing any single site
    never silently unmasks its siblings (the fingerprint survives until
    the last site is gone).
    """
    findings: List[Finding] = []
    for qualname in region.members():
        fn = callgraph.functions[qualname]
        scan = scan_function(fn.node)
        by_kind: Dict[str, List[_Site]] = {}
        for site in scan.allocations:
            by_kind.setdefault(site.kind, []).append(site)
        for kind in sorted(by_kind):
            sites = by_kind[kind]
            first = min(sites, key=lambda s: (s.line, s.col))
            extra = (f" ({len(sites)} sites)" if len(sites) > 1 else "")
            findings.append(Finding(
                path=fn.path, line=first.line, col=first.col,
                rule="hot-loop-allocation",
                message=(
                    f"{kind} allocated inside a hot loop{extra}; this "
                    f"function is hot via {_via(region, qualname)} — "
                    "hoist the allocation out of the loop or build it "
                    "vectorized"
                ),
                fingerprint=f"hot-loop-allocation:{qualname}:{kind}",
            ))
        by_chain: Dict[str, List[_Site]] = {}
        for site in scan.chains:
            by_chain.setdefault(site.detail, []).append(site)
        for dotted in sorted(by_chain):
            sites = by_chain[dotted]
            first = min(sites, key=lambda s: (s.line, s.col))
            findings.append(Finding(
                path=fn.path, line=first.line, col=first.col,
                rule="unhoisted-attribute-chain",
                message=(
                    f"attribute chain {dotted} is re-resolved every "
                    f"iteration of a hot loop; this function is hot via "
                    f"{_via(region, qualname)} — hoist it to a local "
                    "before the loop"
                ),
                fingerprint=(
                    f"unhoisted-attribute-chain:{qualname}:{dotted}"
                ),
            ))
    return findings


def _declared_signature(fn_node: ast.AST) -> str:
    """Canonical comma-separated parameter list of a function node."""
    args = getattr(fn_node, "args", None)
    if args is None:
        return ""
    names = [a.arg for a in args.posonlyargs + args.args]
    if args.vararg:
        names.append("*" + args.vararg.arg)
    elif args.kwonlyargs:
        names.append("*")
    names.extend(a.arg for a in args.kwonlyargs)
    if args.kwarg:
        names.append("**" + args.kwarg.arg)
    return ", ".join(names)


def _normalize_signature(declared: str) -> str:
    return ", ".join(
        part.strip() for part in declared.split(",") if part.strip()
    )


def check_contract_drift(callgraph: CallGraph,
                         contract: PerfContract) -> List[Finding]:
    """Entry points must still exist with their declared signatures."""
    findings: List[Finding] = []
    declared = {entry.function for entry in contract.entries}
    declared.update(contract.purity_entrypoints)
    for qualname in sorted(declared):
        if qualname not in callgraph.functions:
            findings.append(Finding(
                path=str(callgraph.graph.src_root), line=0, col=0,
                rule="missing-entrypoint",
                message=(
                    f"contract entry point {qualname} does not exist; "
                    "fix perfcontract.toml or restore the function"
                ),
                fingerprint=f"missing-entrypoint:{qualname}",
            ))
    for entry in contract.entries:
        fn = callgraph.functions.get(entry.function)
        if fn is None or not entry.signature:
            continue
        actual = _declared_signature(fn.node)
        expected = _normalize_signature(entry.signature)
        if actual != expected:
            findings.append(Finding(
                path=fn.path, line=fn.node.lineno, col=fn.node.col_offset,
                rule="entrypoint-drift",
                message=(
                    f"{entry.function} now has signature ({actual}) but "
                    f"the contract declares ({expected}); update "
                    "perfcontract.toml so the hot-path contract tracks "
                    "reality"
                ),
                fingerprint=f"entrypoint-drift:{entry.function}",
            ))
    return findings


def check_loop_depth(callgraph: CallGraph,
                     contract: PerfContract) -> List[Finding]:
    """Entry points must stay within their declared loop nesting."""
    findings: List[Finding] = []
    for entry in contract.entries:
        fn = callgraph.functions.get(entry.function)
        if fn is None:
            continue  # reported by check_contract_drift
        depth = scan_function(fn.node).max_loop_depth
        if depth > entry.max_loop_depth:
            findings.append(Finding(
                path=fn.path, line=fn.node.lineno, col=fn.node.col_offset,
                rule="loop-depth",
                message=(
                    f"{entry.function} nests loops {depth} deep but the "
                    f"contract allows {entry.max_loop_depth}; an extra "
                    "nesting level multiplies the per-quad work — "
                    "flatten it or re-justify the declared bound"
                ),
                fingerprint=f"loop-depth:{entry.function}",
            ))
    return findings


def check_engine_purity(callgraph: CallGraph,
                        contract: PerfContract) -> List[Finding]:
    """The fast engine must never reach reference-engine code."""
    findings: List[Finding] = []
    forbidden = list(contract.purity_forbidden)
    for entry in sorted(contract.purity_entrypoints):
        chains = reachable_chains(callgraph, entry)
        for qualname in sorted(chains):
            if not any(
                qualname == prefix or qualname.startswith(prefix + ".")
                for prefix in forbidden
            ):
                continue
            findings.append(Finding(
                path=callgraph.functions[qualname].path,
                line=callgraph.functions[qualname].node.lineno, col=0,
                rule="engine-purity",
                message=(
                    f"fast-engine entry point {entry} reaches forbidden "
                    f"{qualname} via {' -> '.join(chains[qualname])}; the "
                    "fast and reference engines must stay disjoint so "
                    "differential tests keep their meaning"
                ),
                fingerprint=f"engine-purity:{entry}:{qualname}",
            ))
    return findings


def check_profile(contract: PerfContract, profile: dict,
                  profile_path: str) -> List[Finding]:
    """Cross-check the contract against measured benchmark output."""
    findings: List[Finding] = []
    for section in contract.profile_sections:
        node = profile
        for part in section.split("."):
            if isinstance(node, dict) and part in node:
                node = node[part]
            else:
                findings.append(Finding(
                    path=profile_path, line=0, col=0,
                    rule="profile-drift",
                    message=(
                        f"benchmark profile is missing required section "
                        f"{section}; the perf contract and the benchmark "
                        "output have drifted apart"
                    ),
                    fingerprint=f"profile-drift:{section}",
                ))
                break
    if contract.profile_min_speedup > 0:
        speedup = profile.get("fast_vs_reference_speedup")
        if isinstance(speedup, (int, float)) \
                and speedup < contract.profile_min_speedup:
            findings.append(Finding(
                path=profile_path, line=0, col=0,
                rule="profile-regression",
                message=(
                    f"measured fast-vs-reference speedup {speedup:.2f}x "
                    f"is below the contract floor "
                    f"{contract.profile_min_speedup:.2f}x; the fast "
                    "engine has regressed"
                ),
                fingerprint=(
                    "profile-regression:fast_vs_reference_speedup"
                ),
            ))
    return findings
