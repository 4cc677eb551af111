"""The analysis baseline: record pre-existing findings once, ratchet.

A whole-program gate switched on late in a repository's life faces a
dilemma: fail on everything (and get switched off), or waive
everything (and protect nothing).  The baseline resolves it — every
*pre-existing* finding is recorded once, by fingerprint, with a human
justification, and CI fails only on findings **not** in the baseline.
The file only ever shrinks: fixing a violation makes its entry stale
(reported, so it gets deleted), while new violations are never added
automatically — ``--update-baseline`` writes ``TODO`` justifications
that themselves fail the gate until a human replaces them.

One file, ``check-baseline.json``, serves every gate of ``repro
check``, with one namespace of entries per gate::

    {"version": 2, "gates": {"archcheck": [
        {"fingerprint": "...", "justification": "..."}]}}

Fingerprints are location-independent (module pairs, function and
rule pairs) so reformatting or moving code never invalidates the
baseline, only genuine architectural change does.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.analysis.checks_common import Finding
from repro.errors import ConfigError

#: Placeholder written by ``--update-baseline``; rejected by the gate.
TODO_JUSTIFICATION = "TODO: justify this waiver or fix the violation"


@dataclass
class Baseline:
    """Gate name -> fingerprint -> justification for accepted findings."""

    path: Path
    gates: Dict[str, Dict[str, str]] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline."""
        path = Path(path)
        if not path.exists():
            return cls(path=path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise ConfigError(
                f"cannot read analysis baseline {path}: {error}"
            ) from error
        gates = raw.get("gates") if isinstance(raw, dict) else None
        if not isinstance(gates, dict) or not all(
            isinstance(rows, list) and all(
                isinstance(row, dict) and "fingerprint" in row
                for row in rows
            )
            for rows in gates.values()
        ):
            raise ConfigError(
                f"analysis baseline {path} must map 'gates' to lists of "
                "{fingerprint, justification} entries, one per gate"
            )
        return cls(path=path, gates={
            gate: {
                row["fingerprint"]: str(row.get("justification", ""))
                for row in rows
            }
            for gate, rows in gates.items()
        })

    # -- the ratchet ----------------------------------------------------------

    def unjustified(self, gate: str) -> List[Finding]:
        """Entries whose justification is empty or still the TODO stub."""
        entries = self.gates.get(gate, {})
        findings = []
        for fingerprint in sorted(entries):
            justification = entries[fingerprint].strip()
            if justification and justification != TODO_JUSTIFICATION:
                continue
            findings.append(Finding(
                path=str(self.path), line=0, col=0,
                rule="unjustified-baseline",
                message=(
                    f"baseline entry {fingerprint} has no justification; "
                    "every waiver must say why the violation is acceptable"
                ),
            ))
        return findings

    def partition(
        self, gate: str, findings: Sequence[Finding]
    ) -> Tuple[List[Finding], List[Finding], List[str]]:
        """Split findings into (new, baselined) and list stale entries."""
        entries = self.gates.get(gate, {})
        new: List[Finding] = []
        baselined: List[Finding] = []
        seen: set = set()
        for finding in findings:
            if finding.fingerprint and finding.fingerprint in entries:
                baselined.append(finding)
                seen.add(finding.fingerprint)
            else:
                new.append(finding)
        stale = sorted(set(entries) - seen)
        return new, baselined, stale

    # -- writing --------------------------------------------------------------

    def write_updated(self, gate: str, findings: Sequence[Finding]) -> None:
        """Rewrite ``gate``'s namespace to exactly the current findings.

        Existing justifications are preserved; genuinely new entries
        get the TODO stub, which the gate rejects until a human either
        fixes the violation or writes down why it stays.  Every other
        namespace is written back unchanged.
        """
        old = self.gates.get(gate, {})
        self.gates[gate] = {
            fingerprint: old.get(fingerprint, TODO_JUSTIFICATION)
            for fingerprint in sorted({
                f.fingerprint for f in findings if f.fingerprint
            })
        }
        payload = {"version": 2, "gates": {
            name: [
                {"fingerprint": fingerprint, "justification": justification}
                for fingerprint, justification in entries.items()
            ]
            for name, entries in self.gates.items() if entries
        }}
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, self.path)
