"""The ``replint`` engine: file discovery, scoping, suppressions.

The engine parses each Python file once with the stdlib :mod:`ast`
module, runs every registered rule whose scope matches the file, and
filters the raw findings through suppression comments::

    x = time.monotonic()  # replint: disable=wall-clock -- campaign wall
                          # time for the manifest, never simulated time

A suppression must name the rule it silences *and* carry a
justification after ``--``; a disable comment with no justification is
itself reported (rule ``unjustified-suppression``), so waivers stay
auditable.  ``disable=all`` silences every rule on the line.

Suppressions are also checked in the other direction: a justified
disable comment whose rule never actually fires on that line (because
the code was fixed, or the rule name is a typo) is reported as
``unused-suppression``.  Stale waivers otherwise accumulate and hide
the day the hazard comes back.

Unparseable files are reported as ``parse-error`` findings rather than
crashing the run: a lint gate that dies on the file it should be
flagging protects nothing.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.checks_common import Finding, is_timing_critical, \
    sort_findings
from repro.analysis.lint.rules import (
    ALL_RULES,
    ModuleContext,
    Rule,
    build_import_aliases,
    rule_ids,
)

#: ``# replint: disable=<rules> -- why this is safe``
_DISABLE_RE = re.compile(
    r"#\s*replint:\s*disable=([A-Za-z0-9_,\s\-]+?)"
    r"(?:\s+--\s*(?P<why>\S.*))?\s*$"
)

#: Directory names never worth linting.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "build", "dist"})


class _Suppressions:
    """Per-file map of line -> rule ids disabled on that line."""

    def __init__(self, source: str, path: str):
        self.path = path
        self.by_line: Dict[int, Set[str]] = {}
        #: ``(line, col)`` of each justified disable comment, for the
        #: unused-suppression check.
        self.comment_pos: Dict[int, int] = {}
        self.unjustified: List[Finding] = []
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _DISABLE_RE.search(text)
            if not match:
                continue
            rules = {
                name.strip() for name in match.group(1).split(",")
                if name.strip()
            }
            if not match.group("why"):
                self.unjustified.append(Finding(
                    path=path, line=lineno, col=text.index("#"),
                    rule="unjustified-suppression",
                    message=(
                        "replint suppression without a justification; "
                        "write `# replint: disable=<rule> -- <reason>`"
                    ),
                ))
                continue
            self.by_line.setdefault(lineno, set()).update(rules)
            self.comment_pos[lineno] = text.index("#")

    def allows(self, finding: Finding) -> bool:
        disabled = self.by_line.get(finding.line, set())
        return not (finding.rule in disabled or "all" in disabled)

    def unused(self, raw: Sequence[Finding],
               active_ids: Set[str]) -> List[Finding]:
        """Justified suppressions that silenced nothing.

        A suppression is unused when the rule it names never produced a
        raw finding on its line.  Rules that were not active for this
        file (deselected, or timing-only outside a timing-critical
        package) are skipped — the comment may well be load-bearing
        under the full rule set.  Unknown rule names are always
        reported: they can never fire, so the waiver is dead on
        arrival (usually a typo).
        """
        fired: Set[Tuple[int, str]] = {(f.line, f.rule) for f in raw}
        fired_lines: Set[int] = {f.line for f in raw}
        known = rule_ids()
        out: List[Finding] = []

        def flag(lineno: int, message: str) -> None:
            out.append(Finding(
                path=self.path, line=lineno,
                col=self.comment_pos.get(lineno, 0),
                rule="unused-suppression", message=message,
            ))

        for lineno in sorted(self.by_line):
            for rule_name in sorted(self.by_line[lineno]):
                if rule_name == "all":
                    if lineno not in fired_lines:
                        flag(lineno,
                             "suppression of all rules silences nothing "
                             "on this line; remove the stale "
                             "`# replint: disable` comment")
                elif rule_name not in known:
                    flag(lineno,
                         f"suppression names unknown rule {rule_name!r}; "
                         "it can never fire (typo?)")
                elif (rule_name in active_ids
                        and (lineno, rule_name) not in fired):
                    flag(lineno,
                         f"suppression of {rule_name!r} silences nothing "
                         "on this line; remove the stale "
                         "`# replint: disable` comment")
        return out


class LintEngine:
    """Runs the ``replint`` rule set over files, trees or source text."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None,
                 select: Optional[Iterable[str]] = None):
        chosen = list(rules if rules is not None else ALL_RULES)
        if select is not None:
            wanted = set(select)
            chosen = [rule for rule in chosen if rule.rule_id in wanted]
        self.rules = chosen

    # -- discovery ------------------------------------------------------------

    @staticmethod
    def discover(paths: Iterable[Path]) -> List[Path]:
        """Expand files/directories into a sorted list of ``.py`` files."""
        out: Set[Path] = set()
        for path in paths:
            path = Path(path)
            if path.is_dir():
                for candidate in path.rglob("*.py"):
                    if not set(candidate.parts) & _SKIP_DIRS:
                        out.add(candidate)
            elif path.suffix == ".py":
                out.add(path)
        return sorted(out)

    # -- linting --------------------------------------------------------------

    def lint_source(self, source: str, path: str,
                    timing_critical: Optional[bool] = None) -> List[Finding]:
        """Lint one module given as text (the unit the tests drive)."""
        if timing_critical is None:
            timing_critical = is_timing_critical(Path(path))
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            return [Finding(
                path=path, line=error.lineno or 0, col=error.offset or 0,
                rule="parse-error",
                message=f"cannot parse file: {error.msg}",
            )]
        ctx = ModuleContext(
            path=path,
            tree=tree,
            timing_critical=timing_critical,
            import_aliases=build_import_aliases(tree),
        )
        raw: List[Finding] = []
        active_ids: Set[str] = set()
        for rule in self.rules:
            if rule.timing_only and not timing_critical:
                continue
            active_ids.add(rule.rule_id)
            raw.extend(rule.check(ctx))
        suppressions = _Suppressions(source, path)
        kept = [f for f in raw if suppressions.allows(f)]
        kept.extend(suppressions.unjustified)
        kept.extend(suppressions.unused(raw, active_ids))
        return sort_findings(kept)

    def lint_file(self, path: Path) -> List[Finding]:
        path = Path(path)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            return [Finding(
                path=str(path), line=0, col=0, rule="parse-error",
                message=f"cannot read file: {error}",
            )]
        return self.lint_source(source, str(path))

    def lint_paths(self, paths: Iterable[Path]) -> List[Finding]:
        """Lint every ``.py`` file under ``paths``; deterministic order."""
        findings: List[Finding] = []
        for path in self.discover(paths):
            findings.extend(self.lint_file(path))
        return sort_findings(findings)


def lint_paths(paths: Iterable[Path]) -> List[Finding]:
    """Convenience wrapper: lint ``paths`` with the full rule set."""
    return LintEngine().lint_paths(paths)
