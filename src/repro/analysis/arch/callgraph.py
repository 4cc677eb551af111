"""Cross-module call graph: which project function does a call reach?

perfcheck's hot region and faultcheck's escape analysis both walk the
program along resolved calls.  The graph is built in two steps:

1. index every function and method in the project;
2. resolve intra-project calls (same-module names, imported names,
   ``self.method``, ``self.attr.method`` through constructor- or
   annotation-derived attribute types, and — as a fallback — method
   names defined exactly once in the whole project).

Resolution is deliberately conservative: a call it cannot resolve adds
no edge, and ambiguous method names add no edge unless exact.  Every
pass over the graph therefore under-approximates — its misses are
silent non-edges rather than false alarms.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.analysis.arch.modgraph import ModuleGraph, ModuleInfo
from repro.analysis.lint.rules import build_import_aliases, dotted_name


@dataclass
class FunctionNode:
    """One indexed function or method."""

    qualname: str                 #: ``module.func`` or ``module.Cls.meth``
    module: str
    path: str
    class_name: Optional[str]
    node: ast.AST
    calls: Set[str] = field(default_factory=set)


class CallGraph:
    """Function index + resolved call edges over a :class:`ModuleGraph`."""

    def __init__(self, graph: ModuleGraph):
        self.graph = graph
        self.functions: Dict[str, FunctionNode] = {}
        #: class qualname -> {method name -> function qualname}
        self.class_methods: Dict[str, Dict[str, str]] = {}
        #: class qualname -> base class qualnames (resolved best effort)
        self.class_bases: Dict[str, List[str]] = {}
        #: class qualname -> {instance attr -> class qualname of its value}
        self.attr_types: Dict[str, Dict[str, str]] = {}
        #: bare method name -> every qualname defining it
        self._method_index: Dict[str, List[str]] = {}
        #: module -> {local name -> qualname} for module-level defs/classes
        self._module_defs: Dict[str, Dict[str, str]] = {}
        #: module -> class local name -> class qualname
        self._module_classes: Dict[str, Dict[str, str]] = {}
        #: module -> import aliases
        self._aliases: Dict[str, Dict[str, str]] = {}
        self._index()
        self._resolve()

    # -- indexing -------------------------------------------------------------

    def _index(self) -> None:
        for info in self.graph.modules.values():
            self._aliases[info.name] = build_import_aliases(info.tree)
            defs: Dict[str, str] = {}
            classes: Dict[str, str] = {}
            for node in info.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{info.name}.{node.name}"
                    defs[node.name] = qual
                    self._add_function(qual, info, None, node)
                elif isinstance(node, ast.ClassDef):
                    class_qual = f"{info.name}.{node.name}"
                    defs[node.name] = class_qual
                    classes[node.name] = class_qual
                    methods: Dict[str, str] = {}
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)):
                            qual = f"{class_qual}.{item.name}"
                            methods[item.name] = qual
                            self._add_function(qual, info, node.name, item)
                    self.class_methods[class_qual] = methods
                    self.class_bases[class_qual] = [
                        base for base in (
                            dotted_name(b) for b in node.bases
                        ) if base
                    ]
            self._module_defs[info.name] = defs
            self._module_classes[info.name] = classes
        for qual, node in self.functions.items():
            name = qual.rsplit(".", 1)[1]
            self._method_index.setdefault(name, []).append(qual)
        self._infer_attr_types()

    def _add_function(self, qualname: str, info: ModuleInfo,
                      class_name: Optional[str], node: ast.AST) -> None:
        self.functions[qualname] = FunctionNode(
            qualname=qualname, module=info.name, path=str(info.path),
            class_name=class_name, node=node,
        )

    def _resolve_class_name(self, module: str, name: str) -> Optional[str]:
        """Class qualname a (possibly dotted) local name refers to."""
        if name in self._module_classes.get(module, {}):
            return self._module_classes[module][name]
        resolved = self._expand_alias(module, name)
        if resolved in self.class_methods:
            return resolved
        return None

    def _expand_alias(self, module: str, dotted: str) -> str:
        head, _, rest = dotted.partition(".")
        expanded = self._aliases.get(module, {}).get(head, head)
        return f"{expanded}.{rest}" if rest else expanded

    def _annotation_class(self, module: str,
                          annotation: Optional[ast.AST]) -> Optional[str]:
        """Class qualname named by an annotation (unwraps Optional[...])."""
        if annotation is None:
            return None
        if isinstance(annotation, ast.Subscript):
            return self._annotation_class(module, annotation.slice)
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            return self._resolve_class_name(module, annotation.value)
        name = dotted_name(annotation)
        if name is None:
            return None
        return self._resolve_class_name(module, name)

    def _infer_attr_types(self) -> None:
        """``self.x = Cls(...)`` / annotated ``__init__`` params -> types."""
        for class_qual, methods in self.class_methods.items():
            module = class_qual.rsplit(".", 1)[0]
            types: Dict[str, str] = {}
            for method_qual in methods.values():
                fn = self.functions[method_qual]
                params: Dict[str, Optional[str]] = {}
                args = getattr(fn.node, "args", None)
                if args is not None:
                    for arg in (args.posonlyargs + args.args
                                + args.kwonlyargs):
                        params[arg.arg] = self._annotation_class(
                            module, arg.annotation
                        )
                for node in ast.walk(fn.node):
                    if not isinstance(node, ast.Assign):
                        continue
                    for target in node.targets:
                        if not (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            continue
                        value_cls: Optional[str] = None
                        if isinstance(node.value, ast.Call):
                            callee = dotted_name(node.value.func)
                            if callee:
                                value_cls = self._resolve_class_name(
                                    module, callee
                                )
                        elif isinstance(node.value, ast.Name):
                            value_cls = params.get(node.value.id)
                        if value_cls:
                            types[target.attr] = value_cls
            self.attr_types[class_qual] = types

    # -- call resolution ------------------------------------------------------

    def _resolve(self) -> None:
        for fn in self.functions.values():
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Call):
                    callee = self._resolve_call(fn, node)
                    if callee:
                        fn.calls.add(callee)

    def _method_on_class(self, class_qual: str,
                         method: str) -> Optional[str]:
        """Look a method up on a class, walking declared bases."""
        seen: Set[str] = set()
        queue = [class_qual]
        while queue:
            cls = queue.pop(0)
            if cls in seen:
                continue
            seen.add(cls)
            found = self.class_methods.get(cls, {}).get(method)
            if found:
                return found
            module = cls.rsplit(".", 1)[0]
            for base in self.class_bases.get(cls, []):
                resolved = self._resolve_class_name(module, base)
                if resolved:
                    queue.append(resolved)
        return None

    def resolve_call(self, fn: FunctionNode,
                     call: ast.Call) -> Optional[str]:
        """Public resolution entry point (used by the flow analyzer)."""
        return self._resolve_call(fn, call)

    def _resolve_call(self, fn: FunctionNode,
                      call: ast.Call) -> Optional[str]:
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        module = fn.module
        class_qual = (
            f"{module}.{fn.class_name}" if fn.class_name else None
        )
        # self.method() / self.attr.method()
        if parts[0] == "self" and class_qual:
            if len(parts) == 2:
                return self._method_on_class(class_qual, parts[1])
            if len(parts) == 3:
                attr_cls = self.attr_types.get(class_qual, {}).get(parts[1])
                if attr_cls:
                    return self._method_on_class(attr_cls, parts[2])
            return self._unique_method(parts[-1])
        # bare name: same-module function or class constructor
        if len(parts) == 1:
            local = self._module_defs.get(module, {}).get(parts[0])
            if local:
                return self._constructor_or_function(local)
            expanded = self._expand_alias(module, dotted)
            return self._constructor_or_function(expanded)
        # dotted name through import aliases
        expanded = self._expand_alias(module, dotted)
        resolved = self._constructor_or_function(expanded)
        if resolved:
            return resolved
        # obj.method() on something we can't type: unique-name fallback
        return self._unique_method(parts[-1])

    def _constructor_or_function(self, qualname: str) -> Optional[str]:
        if qualname in self.functions:
            return qualname
        if qualname in self.class_methods:
            init = self.class_methods[qualname].get("__init__")
            if init:
                return init
            return None
        return None

    def _unique_method(self, name: str) -> Optional[str]:
        candidates = self._method_index.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None
