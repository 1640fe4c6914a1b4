"""The shared project index: every function, class, and call edge.

:class:`Project` parses every ``.py`` file under the analyzed roots once
and builds the whole-program tables the NP30x FSM pass and the
``flow --graph`` explainer read:

* ``functions`` — qualified name (``module.Class.method``) to
  :class:`FunctionInfo` (AST node, path, class context);
* ``callees(qname)`` — resolved callee qnames for every call site in a
  function, with Python's dynamism handled by *name resolution*: a bare
  ``f(...)`` binds to the module's own ``f`` first, ``self.m(...)`` to a
  method ``m`` of the enclosing class first, and ``obj.m(...)`` to every
  known function named ``m`` (the conservative over-approximation an
  untyped call graph needs).

Everything is deterministic: files are walked sorted, functions indexed
in source order, and all result lists are sorted.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.nectarlint import iter_python_files

__all__ = ["FunctionInfo", "Project"]


@dataclass
class FunctionInfo:
    """One function or method in the analyzed project."""

    qname: str
    name: str
    path: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    module: str
    class_name: Optional[str] = None
    #: Resolved callee qnames per call site, in source order.
    callees: List[str] = field(default_factory=list)


def _module_name(path: str) -> str:
    """``src/repro/hub/network.py`` -> ``repro.hub.network`` (best effort)."""
    parts = os.path.normpath(path).split(os.sep)
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    for anchor in ("src", "lib"):
        if anchor in parts:
            parts = parts[parts.index(anchor) + 1 :]
            break
    return ".".join(part for part in parts if part not in ("", ".", ".."))


class _Indexer(ast.NodeVisitor):
    """Collect functions (with class context) from one module."""

    def __init__(self, project: "Project", path: str, module: str):
        self.project = project
        self.path = path
        self.module = module
        self._class_stack: List[str] = []
        self._func_stack: List[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.project.classes.setdefault(node.name, []).append(
            (self.module, self.path, node)
        )
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_func(self, node) -> None:
        class_name = self._class_stack[-1] if self._class_stack else None
        scope = list(self._class_stack) + list(self._func_stack)
        qname = ".".join([self.module] + scope + [node.name])
        info = FunctionInfo(
            qname=qname,
            name=node.name,
            path=self.path,
            node=node,
            module=self.module,
            class_name=class_name,
        )
        self.project.functions[qname] = info
        self.project.by_name.setdefault(node.name, []).append(qname)
        if class_name is not None:
            self.project.methods.setdefault(
                (class_name, node.name), []
            ).append(qname)
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func


class Project:
    """The parsed project: modules, functions, classes, call edges."""

    def __init__(self) -> None:
        #: path -> (source text, parsed module).
        self.modules: Dict[str, Tuple[str, ast.Module]] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: bare function name -> every qname carrying it.
        self.by_name: Dict[str, List[str]] = {}
        #: (class name, method name) -> qnames.
        self.methods: Dict[Tuple[str, str], List[str]] = {}
        #: class name -> [(module, path, node)].
        self.classes: Dict[str, List[Tuple[str, str, ast.ClassDef]]] = {}

    # -- loading ------------------------------------------------------------

    @classmethod
    def load(cls, paths: Iterable[str]) -> "Project":
        """Parse every ``.py`` file under ``paths`` (deterministic order)."""
        project = cls()
        for filename in iter_python_files(paths):
            with open(filename, "r", encoding="utf-8") as handle:
                source = handle.read()
            project.add_source(source, filename)
        project.resolve_calls()
        return project

    @classmethod
    def from_source(cls, source: str, path: str = "<string>") -> "Project":
        """Single-source project (fixtures and tests)."""
        project = cls()
        project.add_source(source, path)
        project.resolve_calls()
        return project

    def add_source(self, source: str, path: str) -> None:
        """Parse and index one module (unparseable files are skipped; the
        per-file linter already reports E999 for them)."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return
        self.modules[path] = (source, tree)
        _Indexer(self, path, _module_name(path)).visit(tree)

    # -- call resolution ------------------------------------------------------

    def resolve_calls(self) -> None:
        """Fill every function's ``callees`` list (name resolution)."""
        for qname in sorted(self.functions):
            info = self.functions[qname]
            callees: List[str] = []
            for call in ast.walk(info.node):
                if not isinstance(call, ast.Call):
                    continue
                resolved = self._resolve_call(info, call)
                callees.extend(resolved)
            info.callees = callees

    def _resolve_call(self, info: FunctionInfo, call: ast.Call) -> List[str]:
        func = call.func
        if isinstance(func, ast.Name):
            # Bare name: the module's own function wins, else any function
            # of that name anywhere in the project.
            local = f"{info.module}.{func.id}"
            if local in self.functions:
                return [local]
            return sorted(self.by_name.get(func.id, []))
        if isinstance(func, ast.Attribute):
            method = func.attr
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and info.class_name is not None
            ):
                own = self.methods.get((info.class_name, method))
                if own:
                    return sorted(own)
            # obj.m(...): every known function named m.
            return sorted(self.by_name.get(method, []))
        return []

    # -- queries --------------------------------------------------------------

    def callees(self, qname: str) -> List[str]:
        """Resolved callee qnames of one function ([] if unknown)."""
        info = self.functions.get(qname)
        return info.callees if info is not None else []

    def source_for(self, path: str) -> str:
        """The source text of one indexed module ("" if not indexed)."""
        return self.modules[path][0] if path in self.modules else ""

    def render_graph(self) -> str:
        """Deterministic text dump of the call graph (``flow --graph``)."""
        lines: List[str] = []
        for qname in sorted(self.functions):
            callees = sorted(set(self.functions[qname].callees))
            if not callees:
                continue
            lines.append(f"{qname}")
            for callee in callees:
                lines.append(f"  -> {callee}")
        return "\n".join(lines)

