"""The gate engine behind ``repro check``: four analyzers, one ratchet.

``repro check`` runs four static gates over the source tree:

* ``lint`` — replint's per-file AST rules (:mod:`repro.analysis.lint`);
* ``archcheck`` — the layer contract, import cycles, timing-critical
  mutations and the export surface (:mod:`repro.analysis.arch`);
* ``faultcheck`` — the exception-flow contracts
  (:mod:`repro.analysis.flow`);
* ``perfcheck`` — the hot-path code shapes and the benchmark
  cross-check (:mod:`repro.analysis.perf`).

Each gate is a plain function from the run's :class:`GateOptions` to a
:class:`GateRun` — raw findings plus headline statistics — so it can
run in a worker process and ship plain data back.  The parent then
applies the one baseline step: findings whose fingerprint has a
justified entry in the gate's namespace of the baseline are waived,
stale and unjustified entries are surfaced, and ``--update-baseline``
rewrites the namespace.  The result is a :class:`GateReport`.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.arch import (
    Baseline,
    CallGraph,
    LayerContract,
    ModuleGraph,
    check_cycles,
    check_dead_exports,
    check_layers,
    check_timing_critical_mutations,
    check_undeclared_exports,
    graph_to_json,
    to_dot,
)
from repro.analysis.checks_common import (
    Finding,
    findings_payload,
    format_text,
    sort_findings,
)
from repro.analysis.flow import (
    EscapeAnalysis,
    ExceptionTaxonomy,
    FlowConfig,
    extract_flows,
    extract_handlers,
)
from repro.analysis.flow.checks import (
    check_cause_chains,
    check_cli_exit_codes,
    check_fault_sites,
    check_retry_hygiene,
    check_swallowed_base_exceptions,
    check_worker_pickles,
)
from repro.analysis.lint import lint_paths
from repro.analysis.perf import (
    PerfContract,
    check_contract_drift,
    check_engine_purity,
    check_hot_loops,
    check_loop_depth,
    check_profile,
    compute_hot_region,
    hot_region_to_dot,
)
from repro.errors import ConfigError, ReproError


@dataclass(frozen=True)
class GateOptions:
    """The inputs of one ``repro check`` run, shared by every gate.

    Plain values, because the options travel to worker processes.
    ``flow`` is not a command-line option: it names the analyzed
    program's fault and CLI modules, which test fixtures override.
    """

    src: str = "src"
    #: top-level package under ``src`` that faultcheck analyzes.
    package: str = "repro"
    contract: str = "archcontract.toml"
    perf_contract: str = "perfcontract.toml"
    #: benchmark report perfcheck cross-checks its contract against.
    profile_json: Optional[str] = None
    flow: FlowConfig = FlowConfig()


@dataclass
class GateRun:
    """One gate's raw output, before the baseline step."""

    findings: List[Finding] = field(default_factory=list)
    #: headline counts (modules, functions, ...).
    stats: Dict[str, int] = field(default_factory=dict)
    #: further keys of the JSON payload (perfcheck's ``hot_region``).
    details: Dict[str, Any] = field(default_factory=dict)
    #: file name -> contents, written only under ``--graphs DIR``.
    graphs: Dict[str, str] = field(default_factory=dict)
    #: why the gate could not run (a broken contract or profile).
    error: Optional[str] = None


# -- the four gates -----------------------------------------------------------


def lint(options: GateOptions) -> GateRun:
    """replint over every file under ``src``."""
    return GateRun(lint_paths([Path(options.src)]))


def archcheck(options: GateOptions) -> GateRun:
    """The layer contract, cycles, mutations and export surface."""
    contract = LayerContract.load(Path(options.contract))
    graph = ModuleGraph.build(Path(options.src), packages=[contract.package])
    findings: List[Finding] = list(graph.errors)
    findings.extend(check_layers(graph, contract))
    findings.extend(check_cycles(graph))
    if contract.entrypoints:
        findings.extend(check_timing_critical_mutations(
            graph, contract.entrypoints, CallGraph(graph)
        ))
    findings.extend(check_dead_exports(
        graph,
        reference_roots=[
            contract.path.parent / root for root in contract.reference_roots
        ],
        ignore=contract.deadcode_ignore,
    ))
    findings.extend(check_undeclared_exports(graph))
    return GateRun(
        findings,
        {"modules": len(graph.modules), "edges": len(graph.edges)},
        graphs={
            "layers.dot": to_dot(graph, contract),
            "modules.json": graph_to_json(graph, contract) + "\n",
        },
    )


def faultcheck(options: GateOptions) -> GateRun:
    """The six exception-flow contracts over ``package``."""
    config = options.flow
    graph = ModuleGraph.build(Path(options.src), packages=[options.package])
    taxonomy = ExceptionTaxonomy.build(graph)
    callgraph = CallGraph(graph)
    handlers = [
        site for info in graph.modules.values()
        for site in extract_handlers(info, taxonomy)
    ]
    escapes = EscapeAnalysis(
        extract_flows(graph, callgraph, taxonomy), taxonomy
    )
    findings: List[Finding] = list(graph.errors)
    findings.extend(check_swallowed_base_exceptions(handlers, taxonomy))
    findings.extend(check_cause_chains(graph))
    findings.extend(check_retry_hygiene(handlers, taxonomy, config))
    findings.extend(check_fault_sites(graph, config))
    findings.extend(check_cli_exit_codes(
        graph, callgraph, escapes, taxonomy, config
    ))
    findings.extend(check_worker_pickles(graph))
    return GateRun(findings, {
        "modules": len(graph.modules),
        "exception_classes": len(taxonomy.classes),
        "functions": len(escapes.flows),
    })


def _load_profile(path: Path) -> dict:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise ConfigError(
            f"cannot read benchmark profile {path}: {error}"
        ) from error
    if not isinstance(raw, dict):
        raise ConfigError(f"benchmark profile {path} must be a JSON object")
    return raw


def perfcheck(options: GateOptions) -> GateRun:
    """The hot-region rules, plus the optional profile cross-check."""
    contract = PerfContract.load(Path(options.perf_contract))
    graph = ModuleGraph.build(Path(options.src), packages=[contract.package])
    callgraph = CallGraph(graph)
    region = compute_hot_region(
        callgraph,
        [entry.function for entry in contract.entries],
        exclude=contract.exclude,
    )
    findings: List[Finding] = list(graph.errors)
    findings.extend(check_contract_drift(callgraph, contract))
    findings.extend(check_loop_depth(callgraph, contract))
    findings.extend(check_hot_loops(callgraph, region))
    findings.extend(check_engine_purity(callgraph, contract))
    if options.profile_json is not None:
        profile = Path(options.profile_json)
        findings.extend(check_profile(
            contract, _load_profile(profile), str(profile)
        ))
    return GateRun(
        findings,
        {
            "modules": len(graph.modules),
            "hot_functions": len(region.chains),
            "entrypoints": len(region.entries),
        },
        details={"hot_region": region.members()},
        graphs={"hotregion.dot": hot_region_to_dot(
            callgraph, region, package=contract.package
        )},
    )


@dataclass(frozen=True)
class Gate:
    """One row of the gate table."""

    run: Callable[[GateOptions], GateRun]
    #: the analyzer's name in its report.
    tool: str
    #: one summary line formatted from the run's stats ("" for none).
    headline: str = ""


#: The gates of ``repro check``, in report order.
GATES: Dict[str, Gate] = {
    "lint": Gate(lint, "replint"),
    "archcheck": Gate(
        archcheck, "archcheck",
        "graph: {modules} modules, {edges} internal edges",
    ),
    "faultcheck": Gate(
        faultcheck, "faultcheck",
        "flow: {modules} modules, {exception_classes} exception classes, "
        "{functions} functions analyzed",
    ),
    "perfcheck": Gate(
        perfcheck, "perfcheck",
        "hot region: {hot_functions} functions reachable from "
        "{entrypoints} entry points",
    ),
}


def run_gate(name: str, options: GateOptions) -> GateRun:
    """Run one gate; a broken input fails this gate, not the run.

    Module level with picklable arguments, so :func:`run_gates` can
    submit it to a process pool.
    """
    try:
        return GATES[name].run(options)
    except ReproError as error:
        return GateRun(error=str(error))


# -- the baseline step --------------------------------------------------------


@dataclass
class GateReport:
    """One gate after the baseline step."""

    name: str
    run: GateRun
    #: findings NOT covered by the baseline, plus unjustified waivers.
    findings: List[Finding] = field(default_factory=list)
    #: findings covered by a justified baseline entry.
    baselined: List[Finding] = field(default_factory=list)
    #: baseline fingerprints that no longer match anything.
    stale: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.run.error is None and not self.findings

    def stats(self) -> Dict[str, int]:
        """The run's headline counts plus the baseline step's."""
        return {
            **self.run.stats,
            "findings": len(self.findings),
            "baselined": len(self.baselined),
            "stale": len(self.stale),
        }

    def as_dict(self) -> Dict[str, Any]:
        """The gate's JSON payload."""
        tool = GATES[self.name].tool
        if self.run.error is not None:
            return {"tool": tool, "error": self.run.error}
        return findings_payload(
            self.findings, tool,
            stats=self.stats(),
            baselined=[f.as_dict() for f in self.baselined],
            stale_baseline=self.stale,
            **self.run.details,
        )

    def as_text(self, baseline_path: str) -> str:
        """The gate's console section (without the exit-status line)."""
        if self.run.error is not None:
            return f"error: {self.run.error}"
        gate = GATES[self.name]
        lines = [format_text(self.findings, tool=gate.tool)]
        if gate.headline:
            lines.append(gate.headline.format(**self.run.stats))
        if self.baselined:
            lines.append(
                f"baselined: {len(self.baselined)} pre-existing "
                f"finding(s) waived by {baseline_path}"
            )
        lines.extend(
            f"stale baseline entry (violation fixed? delete it): {stale}"
            for stale in self.stale
        )
        return "\n".join(lines)


def apply_baseline(name: str, run: GateRun, baseline: Baseline,
                   update_baseline: bool = False) -> GateReport:
    """Split a run's findings against ``name``'s baseline namespace.

    *New* findings gate, *baselined* ones are reported but tolerated,
    *stale* entries are surfaced so the ratchet only ever tightens.
    With ``update_baseline`` the namespace is first rewritten to the
    current findings, new entries carrying the TODO stub that fails.
    """
    report = GateReport(name, run)
    if run.error is not None:
        return report
    raw = sort_findings(run.findings)
    if update_baseline:
        baseline.write_updated(name, raw)
    new, report.baselined, report.stale = baseline.partition(name, raw)
    report.findings = sort_findings(new + baseline.unjustified(name))
    return report


def _analyze(names: Sequence[str], options: GateOptions) -> List[GateRun]:
    if len(names) > 1:
        try:
            with ProcessPoolExecutor(max_workers=len(names)) as pool:
                futures = [
                    pool.submit(run_gate, name, options) for name in names
                ]
                return [future.result() for future in futures]
        except (OSError, BrokenProcessPool):
            # No usable process pool (restricted sandbox, dead worker):
            # the same gates, serially, below.
            pass
    return [run_gate(name, options) for name in names]


def run_gates(names: Sequence[str], options: GateOptions,
              baseline: Baseline,
              update_baseline: bool = False) -> List[GateReport]:
    """Run the named gates, one worker process each, then the baseline.

    Wall clock is the slowest gate, not the sum.  The workers only
    analyze; the baseline step, and any rewrite of the baseline file,
    runs here, one gate at a time.
    """
    return [
        apply_baseline(name, run, baseline, update_baseline)
        for name, run in zip(names, _analyze(names, options))
    ]
