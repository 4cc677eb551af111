"""The faultcheck passes: five whole-program exception-flow checks.

Each check returns :class:`~repro.analysis.checks_common.Finding` rows
with location-independent fingerprints, so the baseline ratchet of
:mod:`repro.analysis.arch.baseline` applies unchanged:

1. ``swallowed-base-exception`` — no handler absorbs ``BaseException``
   (or a ``BaseException``-only project class such as ``InjectedKill``)
   without re-raising; an injected kill that a boundary can eat
   un-proves every chaos guarantee.
2. ``dropped-cause-chain`` — a wrap-and-reraise site must carry its
   cause (``raise X(...) from e``); binding the error and then raising
   ``from None`` silently discards the very context a post-mortem
   needs.
3. ``non-transient-retry`` — a ``while``-loop retry handler may only
   re-attempt error types the taxonomy marks transient, call the
   runtime transiency guard, or convert the failure into a typed
   transient error.
4. ``orphan-fault-site`` / ``unknown-fault-site`` /
   ``duplicate-fault-site`` — every ``SITE_*`` name declared in the
   fault-injection module is wired to exactly one live hook call, and
   every hook call names a declared site.
5. ``unmapped-exit-code`` / ``undocumented-exit-code`` — every project
   exception that can escape a CLI subcommand is caught by the CLI
   boundary and mapped to a named ``EXIT_*`` constant.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.arch.callgraph import CallGraph
from repro.analysis.arch.modgraph import ModuleGraph
from repro.analysis.checks_common import Finding
from repro.analysis.flow.model import HandlerSite
from repro.analysis.flow.propagate import EscapeAnalysis
from repro.analysis.flow.taxonomy import ExceptionTaxonomy
from repro.analysis.lint.rules import build_import_aliases, dotted_name


@dataclass(frozen=True)
class FlowConfig:
    """What the program under analysis calls its moving parts.

    The defaults target this repository; the test-suite's synthetic
    fixture packages override them.
    """

    #: Module declaring ``SITE_*`` constants and the hook function.
    faults_module: str = "repro.sim.faults"
    #: Name of the injection hook the hot paths call.
    fault_hook: str = "fault_point"
    #: Module holding the CLI subcommands and dispatcher.
    cli_module: str = "repro.cli"
    #: Prefix of subcommand handler functions in the CLI module.
    command_prefix: str = "cmd_"
    #: The dispatcher whose ``except`` clauses are the CLI boundary.
    boundary_function: str = "main"
    #: Prefix of the documented exit-code constants.
    exit_prefix: str = "EXIT_"
    #: Calls inside a retry handler that prove runtime transiency
    #: checking (so catching broad types there stays legal).
    transiency_guards: Tuple[str, ...] = ("is_transient", "attempts_for")


def _function_label(site: HandlerSite) -> str:
    return site.function or f"{site.module}.<module>"


# -- 1. swallowed BaseException / InjectedKill --------------------------------


def check_swallowed_base_exceptions(
    handlers: Sequence[HandlerSite], taxonomy: ExceptionTaxonomy,
) -> List[Finding]:
    """Handlers that absorb kill-class exceptions without re-raising."""
    findings: List[Finding] = []
    for site in handlers:
        if site.reraises:
            continue
        caught: List[str] = []
        if site.bare:
            caught.append("BaseException")
        for identity in site.types:
            if identity is None:
                continue
            if identity == "BaseException":
                caught.append("BaseException")
            elif (
                identity in taxonomy.classes
                and not taxonomy.is_exception_subclass(identity)
            ):
                # A project class that derives from BaseException but
                # not Exception exists precisely to punch through
                # error boundaries; swallowing it defeats its design.
                caught.append(identity)
        for identity in caught:
            findings.append(Finding(
                path=site.path, line=site.line, col=site.col,
                rule="swallowed-base-exception",
                message=(
                    f"{_function_label(site)} swallows "
                    f"{identity.rsplit('.', 1)[-1]} without re-raising; "
                    "a kill-class exception must end the process like a "
                    "power cut, or the fault-injection guarantees are "
                    "unproven"
                ),
                fingerprint=(
                    "swallowed-base-exception:"
                    f"{_function_label(site)}:{identity}"
                ),
            ))
    return findings


# -- 2. dropped cause chains --------------------------------------------------


def check_cause_chains(graph: ModuleGraph) -> List[Finding]:
    """Wrap-and-reraise sites that lose the exception they translate.

    A ``raise X(...)`` with no ``from`` clause inside an ``except``
    block chains implicitly in CPython, but the *intent* is ambiguous
    and ``__cause__`` stays unset; a ``raise X(...) from None`` in a
    handler that *bound* the error deliberately bins the context it
    went to the trouble of naming.  Both must become ``from <err>``
    (or justify themselves in the baseline).
    """
    findings: List[Finding] = []
    for info in graph.modules.values():

        def visit(node: ast.AST, handler: Optional[ast.ExceptHandler],
                  function: str) -> None:
            for child in ast.iter_child_nodes(node):
                child_handler = handler
                child_function = function
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.ClassDef)):
                    child_function = (
                        f"{function}.{child.name}" if function
                        else f"{info.name}.{child.name}"
                    )
                    child_handler = None  # a new frame starts clean
                elif isinstance(child, ast.ExceptHandler):
                    child_handler = child
                elif isinstance(child, ast.Raise) and handler is not None:
                    if isinstance(child.exc, ast.Call):
                        raised = dotted_name(child.exc.func) or "<dynamic>"
                        caught = ",".join(
                            _spelled_types(handler)
                        ) or "<bare>"
                        label = function or f"{info.name}.<module>"
                        if child.cause is None:
                            findings.append(Finding(
                                path=str(info.path), line=child.lineno,
                                col=child.col_offset,
                                rule="dropped-cause-chain",
                                message=(
                                    f"{label} wraps a caught exception in "
                                    f"{raised} without `from`; write "
                                    "`raise ... from err` to preserve the "
                                    "cause chain (or `from None` to "
                                    "suppress it on purpose)"
                                ),
                                fingerprint=(
                                    "dropped-cause-chain:"
                                    f"{label}:{caught}->{raised}"
                                ),
                            ))
                        elif (
                            isinstance(child.cause, ast.Constant)
                            and child.cause.value is None
                            and handler.name is not None
                        ):
                            findings.append(Finding(
                                path=str(info.path), line=child.lineno,
                                col=child.col_offset,
                                rule="dropped-cause-chain",
                                message=(
                                    f"{label} binds the caught error as "
                                    f"`{handler.name}` but raises {raised} "
                                    "`from None`, discarding the cause "
                                    f"chain; use `from {handler.name}`"
                                ),
                                fingerprint=(
                                    "dropped-cause-chain:"
                                    f"{label}:{caught}->{raised}"
                                ),
                            ))
                visit(child, child_handler, child_function)

        visit(info.tree, None, "")
    return findings


def _spelled_types(handler: ast.ExceptHandler) -> List[str]:
    if handler.type is None:
        return []
    nodes = (
        handler.type.elts if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    return [dotted_name(node) or "<dynamic>" for node in nodes]


# -- 3. retry hygiene ---------------------------------------------------------


def check_retry_hygiene(
    handlers: Sequence[HandlerSite], taxonomy: ExceptionTaxonomy,
    config: FlowConfig,
) -> List[Finding]:
    """Retry loops may only re-attempt transient error types.

    A handler inside a ``while`` loop that sends control back around
    (explicit ``continue`` or falling off the end) is a retry.  Each
    caught type must be transient in the taxonomy, unless the handler
    consults the runtime transiency guard (``is_transient`` /
    ``attempts_for``) or converts the failure into a transient typed
    error (the pool's ``WorkerCrashError`` conversion pattern).
    """
    findings: List[Finding] = []
    for site in handlers:
        if not (site.in_loop and site.retries) or site.reraises:
            continue
        if _calls_guard(site.node, config.transiency_guards):
            continue
        if _constructs_transient(site.node, taxonomy):
            continue
        spelled_all = site.spelled if not site.bare else ("<bare>",)
        identities = site.types if not site.bare else (None,)
        for spelled, identity in zip(spelled_all, identities):
            if identity is not None and taxonomy.is_transient(identity):
                continue
            findings.append(Finding(
                path=site.path, line=site.line, col=site.col,
                rule="non-transient-retry",
                message=(
                    f"{_function_label(site)} retries on {spelled}, which "
                    "the taxonomy does not mark transient; retrying a "
                    "deterministic failure burns campaign wall time and "
                    "hides real bugs — catch a transient type, or guard "
                    "with is_transient()/attempts_for()"
                ),
                fingerprint=(
                    "non-transient-retry:"
                    f"{_function_label(site)}:{identity or spelled}"
                ),
            ))
    return findings


def _calls_guard(handler: ast.ExceptHandler,
                 guards: Tuple[str, ...]) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name and name.rsplit(".", 1)[-1] in guards:
                return True
    return False


def _constructs_transient(handler: ast.ExceptHandler,
                          taxonomy: ExceptionTaxonomy) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            identity = taxonomy.resolve(name) if name else None
            if identity is not None and taxonomy.is_transient(identity):
                return True
    return False


# -- 4. fault-site wiring -----------------------------------------------------


def check_fault_sites(graph: ModuleGraph,
                      config: FlowConfig) -> List[Finding]:
    """Declared ``SITE_*`` names <-> live hook calls, exactly one each."""
    faults_info = graph.modules.get(config.faults_module)
    if faults_info is None:
        return []
    declared: Dict[str, Tuple[int, str]] = {}  # site value -> (line, name)
    for node in faults_info.tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not (isinstance(target, ast.Name)
                and target.id.startswith("SITE_")):
            continue
        if isinstance(node.value, ast.Constant) and isinstance(
            node.value.value, str
        ):
            declared[node.value.value] = (node.lineno, target.id)

    # site value -> [(path, line)] of hook calls naming it
    calls: Dict[str, List[Tuple[str, int]]] = {}
    findings: List[Finding] = []
    constant_names = {name: value for value, (_, name) in declared.items()}
    for info in graph.modules.values():
        if info.name == config.faults_module:
            continue  # the hook's own definition is not a wiring site
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if not name or name.rsplit(".", 1)[-1] != config.fault_hook:
                continue
            site_value = _site_argument(node, constant_names)
            if site_value is None:
                findings.append(Finding(
                    path=str(info.path), line=node.lineno,
                    col=node.col_offset, rule="unknown-fault-site",
                    message=(
                        f"cannot resolve the site of this "
                        f"{config.fault_hook}() call to a declared "
                        "SITE_* constant; injection wiring must be "
                        "statically auditable"
                    ),
                    fingerprint=f"unknown-fault-site:{info.name}:<dynamic>",
                ))
                continue
            if site_value not in declared:
                findings.append(Finding(
                    path=str(info.path), line=node.lineno,
                    col=node.col_offset, rule="unknown-fault-site",
                    message=(
                        f"{config.fault_hook}() names site "
                        f"{site_value!r}, which {config.faults_module} "
                        "does not declare; the hook is dead (it can "
                        "never fire a declared spec)"
                    ),
                    fingerprint=f"unknown-fault-site:{site_value}",
                ))
                continue
            calls.setdefault(site_value, []).append(
                (str(info.path), node.lineno)
            )
    for site_value, (line, name) in sorted(declared.items()):
        sites = calls.get(site_value, [])
        if not sites:
            findings.append(Finding(
                path=str(faults_info.path), line=line, col=0,
                rule="orphan-fault-site",
                message=(
                    f"fault site {site_value!r} ({name}) has no live "
                    f"{config.fault_hook}() hook; every declared site "
                    "must be wired into a hot path or deleted"
                ),
                fingerprint=f"orphan-fault-site:{site_value}",
            ))
        elif len(sites) > 1:
            where = ", ".join(f"{p}:{ln}" for p, ln in sorted(sites))
            findings.append(Finding(
                path=sites[1][0], line=sites[1][1], col=0,
                rule="duplicate-fault-site",
                message=(
                    f"fault site {site_value!r} is hooked at "
                    f"{len(sites)} call sites ({where}); one site name "
                    "should mean one injection point, or chaos "
                    "attribution becomes ambiguous"
                ),
                fingerprint=f"duplicate-fault-site:{site_value}",
            ))
    return findings


def _site_argument(call: ast.Call,
                   constant_names: Dict[str, str]) -> Optional[str]:
    if not call.args:
        return None
    arg = call.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    name = dotted_name(arg)
    if name is not None:
        return constant_names.get(name.rsplit(".", 1)[-1])
    return None


# -- 5. CLI exit-code mapping -------------------------------------------------


def check_cli_exit_codes(
    graph: ModuleGraph, callgraph: CallGraph, escapes: EscapeAnalysis,
    taxonomy: ExceptionTaxonomy, config: FlowConfig,
) -> List[Finding]:
    """Every taxonomy error reaching a subcommand maps to an exit code."""
    cli_info = graph.modules.get(config.cli_module)
    if cli_info is None:
        return []
    aliases = build_import_aliases(cli_info.tree)
    exit_constants = {
        target.id
        for node in cli_info.tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
        and target.id.startswith(config.exit_prefix)
    }
    boundary_qual = f"{config.cli_module}.{config.boundary_function}"
    boundary = callgraph.functions.get(boundary_qual)
    if boundary is None:
        return []

    findings: List[Finding] = []
    covered: Set[str] = set()
    for node in ast.walk(boundary.node):
        if not isinstance(node, ast.ExceptHandler):
            continue
        spelled = _spelled_types(node) or ["<bare>"]
        for name in spelled:
            head, _, rest = name.partition(".")
            expanded = aliases.get(head, head)
            full = f"{expanded}.{rest}" if rest else expanded
            identity = taxonomy.resolve(full)
            if identity is not None:
                covered.add(identity)
        if not _returns_documented_exit(node, exit_constants):
            findings.append(Finding(
                path=str(cli_info.path), line=node.lineno,
                col=node.col_offset, rule="undocumented-exit-code",
                message=(
                    f"the CLI boundary handler for "
                    f"{', '.join(spelled)} does not return a named "
                    f"{config.exit_prefix}* constant; exit codes are "
                    "API for unattended campaign drivers and must be "
                    "documented module-level names"
                ),
                fingerprint=(
                    "undocumented-exit-code:" + ",".join(spelled)
                ),
            ))

    for qual, fn in sorted(callgraph.functions.items()):
        if fn.module != config.cli_module or fn.class_name is not None:
            continue
        short = qual.rsplit(".", 1)[-1]
        if not short.startswith(config.command_prefix):
            continue
        for identity in sorted(escapes.escaping(qual)):
            if any(taxonomy.catches(c, identity) for c in covered):
                continue
            findings.append(Finding(
                path=fn.path, line=fn.node.lineno, col=fn.node.col_offset,
                rule="unmapped-exit-code",
                message=(
                    f"{identity.rsplit('.', 1)[-1]} can escape {short} "
                    "but no CLI boundary handler catches it; an "
                    "unattended driver would see a raw traceback "
                    "instead of a documented exit code"
                ),
                fingerprint=f"unmapped-exit-code:{short}:{identity}",
            ))
    return findings


def _returns_documented_exit(handler: ast.ExceptHandler,
                             exit_constants: Set[str]) -> bool:
    saw_return = False
    for node in ast.walk(handler):
        if isinstance(node, ast.Return) and node.value is not None:
            saw_return = True
            if (
                isinstance(node.value, ast.Name)
                and node.value.id in exit_constants
            ):
                return True
        elif isinstance(node, ast.Raise):
            return True  # not a mapping handler; re-escalates
    # A handler with no return at all maps nothing — treat as
    # undocumented only when it also returns something unnamed.
    return not saw_return

