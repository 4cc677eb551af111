"""Interprocedural propagation of raised exception types.

Given the per-function :class:`~repro.analysis.flow.model.FunctionFlow`
facts and archcheck's resolved call graph, compute for every function
the set of *project-defined* exception types that can escape it: its
own ``raise`` sites plus everything escaping its callees, minus
whatever the ``try`` bodies those sites sit in would catch.

The domain is deliberately the project taxonomy (classes defined in
the analyzed source, ``Exception``-derived) — the analyzer proves how
*our* typed errors flow to the CLI boundary, not that third-party code
never throws.  The fixpoint is a plain worklist iteration: the domain
is finite and masks only shrink sets, so it terminates.

Like archcheck's call graph, this is a conservative approximation with
silent non-edges: a call that cannot be resolved contributes nothing,
so the pass can miss an escape but masks are only applied where the
handler type is known — an unknown handler type never hides one.
"""

from __future__ import annotations

from typing import Dict, Mapping, Set, Tuple

from repro.analysis.flow.model import FunctionFlow, Mask
from repro.analysis.flow.taxonomy import ExceptionTaxonomy


class EscapeAnalysis:
    """Fixpoint escape sets over the flow facts of a whole program."""

    def __init__(self, flows: Mapping[str, FunctionFlow],
                 taxonomy: ExceptionTaxonomy):
        self.flows = flows
        self.taxonomy = taxonomy
        #: Tracked domain: project exceptions that derive from
        #: ``Exception`` (``BaseException``-only types like
        #: ``InjectedKill`` are policed by the swallow check instead).
        self.domain: Set[str] = {
            qual for qual in taxonomy.project_exceptions()
            if taxonomy.is_exception_subclass(qual)
        }
        self.escapes: Dict[str, Set[str]] = {
            qual: set() for qual in flows
        }
        self._solve()

    def _survives(self, identity: str, masks: Tuple[Mask, ...]) -> bool:
        """Whether ``identity`` flies past every enclosing handler."""
        for mask in masks:
            for caught in mask:
                if self.taxonomy.catches(caught, identity):
                    return False
        return True

    def _local(self, flow: FunctionFlow) -> Set[str]:
        out: Set[str] = set()
        for site in flow.raises:
            if site.identity in self.domain and self._survives(
                site.identity, site.masks
            ):
                out.add(site.identity)
        return out

    def _solve(self) -> None:
        # Seed with each function's own surviving raises, then iterate
        # callers until nothing changes.
        callers: Dict[str, Set[str]] = {qual: set() for qual in self.flows}
        for qual, flow in self.flows.items():
            self.escapes[qual] = self._local(flow)
            for call in flow.calls:
                if call.callee in callers:
                    callers[call.callee].add(qual)
        work = [qual for qual, esc in self.escapes.items() if esc]
        while work:
            changed = work.pop()
            for caller in callers.get(changed, ()):
                flow = self.flows[caller]
                added = False
                for call in flow.calls:
                    if call.callee != changed:
                        continue
                    for identity in self.escapes[changed]:
                        if identity in self.escapes[caller]:
                            continue
                        if self._survives(identity, call.masks):
                            self.escapes[caller].add(identity)
                            added = True
                if added:
                    work.append(caller)

    def escaping(self, qualname: str) -> Set[str]:
        """Project exception types that can escape ``qualname``."""
        return set(self.escapes.get(qualname, set()))
