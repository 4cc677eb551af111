"""Machinery shared by the repository's static checkers.

Four gates check the tree under ``repro check``
(:mod:`repro.analysis.gates`): ``replint``, a per-file AST pass, and
the whole-program ``archcheck``, ``faultcheck`` and ``perfcheck``.
All of them report the same :class:`Finding` rows, format them with
the same ``path:line:col`` text / JSON conventions, and agree on which
packages are timing-critical — so that a CI consumer, an editor
integration, or a human reading two reports side by side never has to
translate between dialects.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Sequence

from repro.errors import ConfigError

#: Packages whose code feeds simulated time / the replayed access stream.
#: A wall-clock read or an unordered iteration here corrupts results;
#: the same constructs in, say, ``analysis.tables`` merely format them.
TIMING_CRITICAL_PACKAGES = frozenset(
    {"sim", "raster", "memory", "shader", "core"}
)


def is_timing_critical(path: Path) -> bool:
    """Whether ``path`` lives in a timing-critical simulator package."""
    return bool(set(Path(path).parts) & TIMING_CRITICAL_PACKAGES)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``fingerprint`` is a location-independent identity used by the
    baseline ratchet (e.g. the pair of modules on a forbidden edge).
    replint findings leave it empty; empty fingerprints are omitted
    from the JSON report so replint's output shape is unchanged.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    fingerprint: str = ""

    def as_dict(self) -> Dict[str, Any]:
        payload = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }
        if self.fingerprint:
            payload["fingerprint"] = self.fingerprint
        return payload

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


def sort_findings(findings: Sequence[Finding]) -> List[Finding]:
    """Deterministic presentation order: path, then line, col, rule."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def format_text(findings: Sequence[Finding], tool: str = "replint") -> str:
    """grep-style ``path:line:col: rule: message`` lines plus a summary."""
    ordered = sort_findings(findings)
    lines = [
        f"{f.location()}: {f.rule}: {f.message}" for f in ordered
    ]
    n = len(ordered)
    lines.append(
        f"{tool}: no findings" if n == 0
        else f"{tool}: {n} finding{'s' if n != 1 else ''}"
    )
    return "\n".join(lines)


def findings_payload(findings: Sequence[Finding], tool: str = "replint",
                     **extra: Any) -> Dict[str, Any]:
    """Machine-readable report: ``{"tool", "findings": [...], "count": N}``.

    ``extra`` keys are merged into the top-level object so a checker
    can attach its own summary data (baseline and graph statistics)
    without changing the shared shape CI gates on.
    """
    ordered = sort_findings(findings)
    payload: Dict[str, Any] = {
        "tool": tool,
        "findings": [f.as_dict() for f in ordered],
        "count": len(ordered),
    }
    payload.update(extra)
    return payload


def reject_unknown_tables(raw: Dict[str, Any], known: Sequence[str],
                          what: str) -> None:
    """Raise :class:`ConfigError` naming any table ``known`` lacks.

    A contract table its loader ignores would pass while checking
    nothing it declares (a misspelt name, or a table whose rule was
    deleted), so every unknown table fails the gate as a broken contract.
    """
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ConfigError(
            f"{what} declares unknown table(s) "
            + ", ".join(f"[{name}]" for name in unknown)
            + "; known tables: "
            + ", ".join(f"[{name}]" for name in known)
        )
