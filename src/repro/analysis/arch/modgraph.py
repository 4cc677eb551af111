"""Whole-program module discovery and the import graph.

replint parses one file at a time; every archcheck pass instead starts
from a :class:`ModuleGraph`: all project modules under a source root,
parsed once, with the project-internal import edges between them
resolved (absolute and relative imports, ``from``-imports of module
attributes collapsed onto the defining module).  Third-party and
stdlib imports are not edges — the contract governs the repository's
own layering, not its dependencies.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.checks_common import Finding

#: Directory names never worth analysing.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "build", "dist",
                        ".mypy_cache", ".pytest_cache"})


@dataclass(frozen=True)
class ImportEdge:
    """One project-internal import: ``src_module`` imports ``dst_module``."""

    src: str
    dst: str
    line: int
    col: int


@dataclass
class ModuleInfo:
    """One parsed project module."""

    name: str          #: dotted module name (``repro.sim.replay``)
    path: Path
    tree: ast.Module
    is_package: bool   #: whether this is a package ``__init__``


@dataclass
class ModuleGraph:
    """Every project module plus the import edges between them."""

    src_root: Path
    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    edges: List[ImportEdge] = field(default_factory=list)
    #: Files that failed to parse, as ``parse-error`` findings.
    errors: List[Finding] = field(default_factory=list)

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(cls, src_root: Path,
              packages: Optional[Iterable[str]] = None) -> "ModuleGraph":
        """Parse every module under ``src_root`` and resolve its imports.

        ``packages`` restricts discovery to the named top-level
        packages/modules; by default every package under the root is
        graphed.
        """
        graph = cls(src_root=Path(src_root))
        wanted = set(packages) if packages is not None else None
        for path in sorted(graph.src_root.rglob("*.py")):
            if set(path.parts) & _SKIP_DIRS:
                continue
            name = graph._module_name(path)
            if name is None:
                continue
            if wanted is not None and name.split(".")[0] not in wanted:
                continue
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"),
                                 filename=str(path))
            except (SyntaxError, UnicodeDecodeError, OSError) as error:
                line = getattr(error, "lineno", 0) or 0
                graph.errors.append(Finding(
                    path=str(path), line=line, col=0, rule="parse-error",
                    message=f"cannot parse module: {error}",
                    fingerprint=f"parse-error:{name}",
                ))
                continue
            graph.modules[name] = ModuleInfo(
                name=name, path=path, tree=tree,
                is_package=path.name == "__init__.py",
            )
        graph._resolve_edges()
        return graph

    def _module_name(self, path: Path) -> Optional[str]:
        parts = list(path.relative_to(self.src_root).with_suffix("").parts)
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        if not parts:
            return None
        return ".".join(parts)

    # -- import resolution ----------------------------------------------------

    def _closest_module(self, dotted: str) -> Optional[str]:
        """Longest prefix of ``dotted`` that names a project module."""
        parts = dotted.split(".")
        while parts:
            candidate = ".".join(parts)
            if candidate in self.modules:
                return candidate
            parts.pop()
        return None

    def _resolve_edges(self) -> None:
        seen: Set[Tuple[str, str, int]] = set()
        for info in self.modules.values():
            package = (
                info.name if info.is_package
                else info.name.rpartition(".")[0]
            )
            for node in ast.walk(info.tree):
                targets: List[str] = []
                if isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    if node.level:
                        # ``from ..x import y`` relative to this module's
                        # package; level 1 is the package itself.
                        base = package.split(".") if package else []
                        if node.level - 1 > len(base):
                            continue
                        if node.level > 1:
                            base = base[:len(base) - (node.level - 1)]
                        prefix = ".".join(base + (
                            [node.module] if node.module else []
                        ))
                    else:
                        prefix = node.module or ""
                    if not prefix:
                        continue
                    targets = [
                        prefix if alias.name == "*"
                        else f"{prefix}.{alias.name}"
                        for alias in node.names
                    ]
                else:
                    continue
                for target in targets:
                    dst = self._closest_module(target)
                    if dst is None or dst == info.name:
                        continue
                    key = (info.name, dst, node.lineno)
                    if key in seen:
                        continue
                    seen.add(key)
                    self.edges.append(ImportEdge(
                        src=info.name, dst=dst,
                        line=node.lineno, col=node.col_offset,
                    ))
        self.edges.sort(key=lambda e: (e.src, e.dst, e.line))

