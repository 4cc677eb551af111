"""Declared hot-path performance contracts: parsing and drift checks.

``perfcontract.toml`` declares the simulator's hot entry points once,
checked in next to the code it governs::

    [project]
    package = "repro"

    [[entry]]
    function = "repro.sim.replay.TraceReplayer.run"
    signature = "self, trace, design, hierarchy"
    max_loop_depth = 2

    [hotregion]
    exclude = ["repro.core.dtexl.DTexLConfig.build_scheduler"]

    [purity]
    entrypoints = ["repro.sim.replay.TraceReplayer._tile_quads_fast"]
    forbidden = ["repro.memory.cache.ReferenceCache"]

    [profile]
    required_sections = ["engines.fast.quads_per_s"]
    min_speedup = 2.0

Each ``[[entry]]`` is a root of the hot region: every function the
call graph can reach from it inherits the hot-loop rules.  ``exclude``
prunes subtrees that are *called from* hot code but are not per-quad
work (per-frame construction, image-output paths); an exclusion stops
the walk at that function.  The ``signature`` and ``max_loop_depth``
fields pin the entry point's shape so the contract rots loudly: rename
a parameter or add a fourth nested loop and the drift check fires
before the benchmark does.  Any table not shown above is an error, so
a misspelt table cannot pass while checking nothing it declares.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

from repro.analysis.checks_common import reject_unknown_tables
from repro.errors import ConfigError


@dataclass(frozen=True)
class PerfEntry:
    """One declared hot entry point."""

    function: str        #: qualname, e.g. ``repro.sim.replay.TraceReplayer.run``
    signature: str       #: comma-separated parameter names, as declared
    max_loop_depth: int  #: deepest lexical For/While nesting allowed


@dataclass
class PerfContract:
    """The parsed contents of a ``perfcontract.toml``."""

    package: str
    entries: List[PerfEntry]
    #: qualname prefixes pruned from the hot-region walk.
    exclude: List[str] = field(default_factory=list)
    #: roots of the engine-purity walk (the fast engine).
    purity_entrypoints: List[str] = field(default_factory=list)
    #: qualname prefixes the purity walk must never reach.
    purity_forbidden: List[str] = field(default_factory=list)
    #: dotted keys that must exist in the benchmark profile JSON.
    profile_sections: List[str] = field(default_factory=list)
    #: floor for ``fast_vs_reference_speedup`` in the profile JSON.
    profile_min_speedup: float = 0.0

    @classmethod
    def load(cls, path: Path) -> "PerfContract":
        path = Path(path)
        try:
            with open(path, "rb") as handle:
                raw = tomllib.load(handle)
        except FileNotFoundError:
            raise ConfigError(
                f"no performance contract at {path}; create a "
                "perfcontract.toml (see docs/ARCHITECTURE.md)"
            ) from None
        except tomllib.TOMLDecodeError as error:
            raise ConfigError(
                f"cannot parse performance contract {path}: {error}"
            ) from error
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "PerfContract":
        reject_unknown_tables(
            raw, ("project", "entry", "hotregion", "purity", "profile"),
            "performance contract",
        )
        project = raw.get("project", {})
        package = project.get("package")
        if not isinstance(package, str) or not package:
            raise ConfigError(
                "performance contract must declare [project] package"
            )
        entries_raw = raw.get("entry")
        if not isinstance(entries_raw, list) or not entries_raw:
            raise ConfigError(
                "performance contract must declare at least one [[entry]]"
            )
        entries: List[PerfEntry] = []
        for row in entries_raw:
            if not isinstance(row, dict) or not isinstance(
                row.get("function"), str
            ):
                raise ConfigError(
                    f"malformed [[entry]] in performance contract: {row!r}"
                )
            depth = row.get("max_loop_depth", 0)
            if not isinstance(depth, int) or depth < 0:
                raise ConfigError(
                    f"entry {row['function']!r} max_loop_depth must be a "
                    "non-negative integer"
                )
            entries.append(PerfEntry(
                function=row["function"],
                signature=str(row.get("signature", "")),
                max_loop_depth=depth,
            ))
        hotregion = raw.get("hotregion", {})
        purity = raw.get("purity", {})
        profile = raw.get("profile", {})
        min_speedup = profile.get("min_speedup", 0.0)
        if not isinstance(min_speedup, (int, float)):
            raise ConfigError("[profile] min_speedup must be a number")
        return cls(
            package=package,
            entries=entries,
            exclude=[str(x) for x in hotregion.get("exclude", [])],
            purity_entrypoints=[
                str(x) for x in purity.get("entrypoints", [])
            ],
            purity_forbidden=[str(x) for x in purity.get("forbidden", [])],
            profile_sections=[
                str(x) for x in profile.get("required_sections", [])
            ],
            profile_min_speedup=float(min_speedup),
        )
