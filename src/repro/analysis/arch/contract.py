"""Declared layer contracts: parsing and the layer check.

``archcontract.toml`` declares the repository's layering once, checked
in next to the code it governs::

    [project]
    package = "repro"

    [layers]
    errors = []
    config = ["errors"]
    sim    = ["errors", "config", ...]   # layers sim may import
    cli    = ["*"]                       # "*" = may import anything

    [modules]
    "repro.cli" = "cli"                  # top-level modules -> layer

Any other table is an error, so a misspelt or retired table cannot
pass while checking nothing it declares.  A module's layer is its
first package component under the project package
(``repro.sim.replay`` -> ``sim``) unless ``[modules]`` maps it
explicitly.  Importing within a layer is always allowed; an edge from
layer A to layer B is allowed only if B appears in A's list.  The
check over a :class:`~repro.analysis.arch.modgraph.ModuleGraph` flags
forbidden edges and modules the contract doesn't map at all (so a new
top-level package can't silently dodge the contract).
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro.analysis.checks_common import Finding, reject_unknown_tables
from repro.analysis.arch.modgraph import ModuleGraph
from repro.errors import ConfigError


@dataclass
class LayerContract:
    """The parsed contents of an ``archcontract.toml``."""

    package: str
    #: layer name -> layers it may import ("*" means anything).
    layers: Dict[str, List[str]]
    #: explicit module -> layer overrides (for top-level modules).
    module_layers: Dict[str, str] = field(default_factory=dict)

    # -- loading --------------------------------------------------------------

    @classmethod
    def load(cls, path: Path) -> "LayerContract":
        path = Path(path)
        try:
            with open(path, "rb") as handle:
                raw = tomllib.load(handle)
        except FileNotFoundError:
            raise ConfigError(
                f"no architecture contract at {path}; create an "
                "archcontract.toml (see docs/ARCHITECTURE.md)"
            ) from None
        except tomllib.TOMLDecodeError as error:
            raise ConfigError(
                f"cannot parse architecture contract {path}: {error}"
            ) from error
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "LayerContract":
        reject_unknown_tables(
            raw, ("project", "layers", "modules"), "architecture contract"
        )
        project = raw.get("project", {})
        package = project.get("package")
        if not isinstance(package, str) or not package:
            raise ConfigError(
                "architecture contract must declare [project] package"
            )
        layers_raw = raw.get("layers")
        if not isinstance(layers_raw, dict) or not layers_raw:
            raise ConfigError(
                "architecture contract must declare a [layers] table"
            )
        layers: Dict[str, List[str]] = {}
        for name, allowed in layers_raw.items():
            if not isinstance(allowed, list) or not all(
                isinstance(item, str) for item in allowed
            ):
                raise ConfigError(
                    f"layer {name!r} must map to a list of layer names"
                )
            layers[name] = list(allowed)
        for name, allowed in layers.items():
            for dep in allowed:
                if dep != "*" and dep not in layers:
                    raise ConfigError(
                        f"layer {name!r} allows unknown layer {dep!r}"
                    )
        module_layers = {}
        for module, layer in raw.get("modules", {}).items():
            if layer not in layers:
                raise ConfigError(
                    f"module {module!r} is mapped to unknown layer {layer!r}"
                )
            module_layers[module] = layer
        return cls(package=package, layers=layers,
                   module_layers=module_layers)

    # -- layer mapping --------------------------------------------------------

    def layer_of(self, module: str) -> Optional[str]:
        """The layer a module belongs to, or ``None`` if unmapped."""
        if module in self.module_layers:
            return self.module_layers[module]
        if module == self.package:
            return self.module_layers.get(module)
        prefix = self.package + "."
        if module.startswith(prefix):
            head = module[len(prefix):].split(".")[0]
            if head in self.layers:
                return head
            return self.module_layers.get(module)
        return None

    def allows(self, src_layer: str, dst_layer: str) -> bool:
        if src_layer == dst_layer:
            return True
        allowed = self.layers.get(src_layer, [])
        return "*" in allowed or dst_layer in allowed


# -- the layer check ----------------------------------------------------------


def check_layers(graph: ModuleGraph,
                 contract: LayerContract) -> List[Finding]:
    """Forbidden edges plus modules the contract doesn't map."""
    findings: List[Finding] = []
    unmapped: Set[str] = set()
    for name in sorted(graph.modules):
        if contract.layer_of(name) is None:
            unmapped.add(name)
            info = graph.modules[name]
            findings.append(Finding(
                path=str(info.path), line=1, col=0, rule="unmapped-module",
                message=(
                    f"module {name} belongs to no declared layer; add its "
                    "package to [layers] or map it in [modules] of "
                    "archcontract.toml"
                ),
                fingerprint=f"unmapped-module:{name}",
            ))
    for edge in graph.edges:
        src_layer = contract.layer_of(edge.src)
        dst_layer = contract.layer_of(edge.dst)
        if src_layer is None or dst_layer is None:
            continue  # already reported as unmapped
        if contract.allows(src_layer, dst_layer):
            continue
        info = graph.modules[edge.src]
        findings.append(Finding(
            path=str(info.path), line=edge.line, col=edge.col,
            rule="forbidden-import",
            message=(
                f"{edge.src} (layer {src_layer}) imports {edge.dst} "
                f"(layer {dst_layer}); the contract allows {src_layer} -> "
                + (", ".join(sorted(contract.layers[src_layer])) or "nothing")
            ),
            fingerprint=f"forbidden-import:{edge.src}->{edge.dst}",
        ))
    return findings

