"""nectarlint: an AST-based determinism / sim-safety linter for this repo.

Walks Python sources with the stdlib :mod:`ast` module (no third-party
dependencies) and reports :class:`~repro.analysis.rules.Finding` objects for
the rules registered in :mod:`repro.analysis.rules`.

Scope notes
-----------
* ND001/ND002/ND003 (clocks and entropy) apply everywhere under the linted
  tree — nothing in the simulation may consult the host environment.
* ND004 (set iteration), ND005 (float ns arithmetic) and NS103 (constant
  yields) apply only inside *simulation-sensitive* packages — path
  components named ``sim``, ``runtime``, ``cab``, ``protocols``, ``hw``,
  ``model`` or ``telemetry`` — where ordering and integer time are
  load-bearing (telemetry export must be byte-stable).  Bench and app
  drivers may freely iterate sets for reporting.
* ND006 (class- and module-level state a run changes) applies everywhere:
  the paper drivers' cells (:mod:`repro.bench.cells`) run any package in
  any process, so no run may leave state behind for the next.
* NS101/NS102 (generator misuse) apply everywhere: the thread-context API
  is the same in apps as in the runtime.
* NB201 (payload materialization) applies only inside *data-path* packages
  — path components named ``hw``, ``protocols``, ``hub``, ``runtime`` or
  ``buf`` — where frame/message payloads must travel as views
  (docs/buffers.md).  Tests, apps and process-boundary serialization
  legitimately materialize; boundary sites in data-path code carry a
  ``# nectarlint: disable=NB201`` with a justifying note.

Usage: ``python -m repro lint src/repro [--strict] [--static]
[--format text|json] [--select CODES] [--ignore CODES]``.  ``--static``
adds the whole-program nectarflow passes (:mod:`repro.analysis.flow`);
exit codes are 0 (clean), 1 (findings), 2 (usage/internal error).
"""

from __future__ import annotations

import ast
import json
import os
import sys
from typing import Iterable, List, Optional

from repro.analysis.rules import (
    Finding,
    all_rules,
    filter_findings,
    parse_suppressions,
)

__all__ = ["lint_paths", "lint_source", "main"]

#: Path components marking simulation-sensitive code (ordering and integer
#: nanoseconds are correctness-critical there).
SENSITIVE_PARTS = (
    "sim",
    "runtime",
    "cab",
    "protocols",
    "hw",
    "model",
    "telemetry",
    "cluster",
    "buf",
    "ops",
    "hub",
    "scenario",
)

#: Path components marking zero-copy data-path code: frame/message payloads
#: must travel as repro.buf views there, never materialized copies (NB201).
DATA_PATH_PARTS = (
    "hw",
    "protocols",
    "hub",
    "runtime",
    "buf",
)

#: Wall-clock callables (matched against the trailing two dotted components).
_WALL_CLOCKS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
}

#: Module-level random functions sharing the global (unseeded) RNG.
_GLOBAL_RANDOM_FNS = {
    "random",
    "randint",
    "randrange",
    "randbytes",
    "getrandbits",
    "choice",
    "choices",
    "sample",
    "shuffle",
    "uniform",
    "triangular",
    "gauss",
    "normalvariate",
    "expovariate",
    "betavariate",
    "paretovariate",
    "vonmisesvariate",
}

#: Full dotted names of OS entropy sources.
_OS_ENTROPY = {
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.randbelow",
    "secrets.choice",
}

#: Thread-context generator APIs: calling one and discarding the generator
#: (a bare expression statement) is always a bug — nothing executes.
_GENERATOR_APIS = {
    "lock",
    "unlock",
    "wait",
    "wait_until",
    "signal",
    "broadcast",
    "isignal",
    "sleep",
    "yield_cpu",
    "join",
    "begin_put",
    "ibegin_put",
    "end_put",
    "iend_put",
    "begin_get",
    "ibegin_get",
    "end_get",
    "iend_get",
    "abort_put",
    "iabort_put",
    "enqueue",
    "ienqueue",
    "kick_readers",
    "fill_message",
    "read_message",
    "iwrite",
    "send_frame",
}

#: Thread-context APIs that can block; forbidden from handler context.
_BLOCKING_APIS = {
    "lock",
    "wait",
    "wait_until",
    "sleep",
    "join",
    "begin_put",
    "begin_get",
}

#: i-prefixed handler-context method names (the paper's convention, Sec. 3.1).
_HANDLER_SUFFIXES = ("_handler", "_irq", "_isr", "_upcall")
_I_PREFIXED_BODIES = {
    "write",
    "signal",
    "begin_put",
    "begin_get",
    "end_put",
    "end_get",
    "abort_put",
    "enqueue",
}

#: Ops a handler may not yield (it may yield only an int of compute ns;
#: the engine raises on everything else — NS102 catches it statically).
_FORBIDDEN_HANDLER_OPS = {"Block", "YieldCPU", "SetMask"}

#: Method names whose results are payload bytes/views: feeding one into
#: bytes()/bytearray() inside data-path code materializes a copy (NB201).
_PAYLOAD_PRODUCERS = {"read", "view", "mv", "chunk_bytes", "tobytes"}


#: Calls that build an iterator or counter: bound at class or module
#: level, every next() advances state that outlives one system (ND006).
_COUNTER_CALLS = {"itertools.count", "count", "itertools.cycle", "cycle", "iter"}

#: Calls and literals that build a mutable container.
_CONTAINER_CALLS = {
    "list", "dict", "set", "bytearray", "deque", "collections.deque",
    "defaultdict", "collections.defaultdict", "OrderedDict",
    "collections.OrderedDict", "Counter", "collections.Counter",
}

#: Methods that mutate a container in place.
_MUTATORS = {
    "append", "appendleft", "extend", "extendleft", "insert", "add",
    "update", "setdefault", "pop", "popleft", "popitem", "remove",
    "discard", "clear",
}


def _dotted_name(node: ast.AST) -> Optional[str]:
    """'a.b.c' for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_set_expr(node: ast.AST, set_names: set) -> bool:
    """Whether ``node`` is syntactically a set (literal, ctor, annotated)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        callee = _dotted_name(node.func)
        if callee in ("set", "frozenset"):
            return True
    name = _dotted_name(node)
    return name is not None and name in set_names


def _annotation_is_set(annotation: ast.AST) -> bool:
    """Whether a type annotation denotes a set/frozenset."""
    base = annotation
    if isinstance(base, ast.Subscript):  # set[int], Set[int], ...
        base = base.value
    dotted = _dotted_name(base)
    if dotted is None:
        return False
    return dotted.rsplit(".", 1)[-1] in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet")


def _has_unwrapped_float(node: ast.AST) -> bool:
    """True if ``node`` contains a true division or float constant that is
    not wrapped in int(...)/round(...)."""
    if isinstance(node, ast.Call):
        callee = _dotted_name(node.func)
        if callee in ("int", "round", "math.floor", "math.ceil", "math.trunc"):
            return False
        return any(_has_unwrapped_float(arg) for arg in node.args)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return _has_unwrapped_float(node.left) or _has_unwrapped_float(node.right)
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, (ast.UnaryOp, ast.IfExp, ast.BoolOp)):
        return any(_has_unwrapped_float(child) for child in ast.iter_child_nodes(node))
    return False


def _touches_payload(node: ast.AST) -> bool:
    """Whether an expression reads frame/message payload bytes.

    Matches ``x.payload`` / bare ``payload`` references and calls of the
    payload-producing accessors (``.read()``, ``.view()``, ``.mv()``,
    ``.chunk_bytes()``, ``.tobytes()``) anywhere inside the expression.
    """
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and child.attr == "payload":
            return True
        if isinstance(child, ast.Name) and child.id == "payload":
            return True
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr in _PAYLOAD_PRODUCERS
        ):
            return True
    return False


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and _dotted_name(node.func) in _CONTAINER_CALLS


def _bound_names(body: List[ast.stmt]) -> dict:
    """name -> value node for every plain ``name = value`` in a body."""
    names = {}
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names[target.id] = stmt.value
    return names


def _function_locals(func) -> set:
    """Names a function binds itself (parameters, assignments, loops)."""
    args = func.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    declared_global = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node is not func:
            names.add(node.name)
    return names - declared_global


def _shared_state(tree: ast.Module) -> List[tuple]:
    """ND006: ``(node, message)`` for each piece of class- or module-level
    state a run could change.

    Flags a counter or iterator bound at class or module level; inside a
    function, a ``global`` rebinding, an in-place change to an object bound
    at module level, an attribute write to a class (``Name.attr =``,
    ``cls.attr =``, ``type(self).attr =``), and an in-place change to a
    class-level container through ``self`` that no ``self.attr =`` shadows.
    """
    found: List[tuple] = []
    module_names = _bound_names(tree.body)
    classes = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for stmt in tree.body
        if isinstance(stmt, (ast.Import, ast.ImportFrom))
        for alias in stmt.names
    }

    for scope in [tree, *classes.values()]:
        where = "module" if scope is tree else f"class {scope.name}"
        for name, value in _bound_names(scope.body).items():
            if isinstance(value, ast.Call) and _dotted_name(value.func) in _COUNTER_CALLS:
                found.append((value, f"{where}-level counter {name!r} is process-wide "
                              f"state; own it per instance or per system"))

    def is_class(base: ast.AST, local: set) -> bool:
        if isinstance(base, ast.Call):
            return _dotted_name(base.func) == "type"
        if not isinstance(base, ast.Name) or base.id in local - {"cls"}:
            return False
        return (
            base.id in classes
            or base.id == "cls"
            or (base.id in imported and base.id[:1].isupper())
        )

    def check_function(func, shared: set) -> None:
        local = _function_locals(func)
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                found.append((node, f"{func.name!r} rebinds module-level "
                              f"{', '.join(node.names)} ('global')"))
                continue
            if isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                base, attribute = node.value, isinstance(node, ast.Attribute)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
            ):
                base, attribute = node.func.value, False
            else:
                continue
            if attribute and is_class(base, local):
                found.append((node, f"{func.name!r} writes class attribute "
                              f"{ast.unparse(node)!r}"))
            elif (
                isinstance(base, ast.Name)
                and base.id in module_names
                and base.id not in local
                and (attribute or _is_mutable_value(module_names[base.id]))
            ):
                found.append((node, f"{func.name!r} changes module-level {base.id!r}"))
            elif (
                not attribute
                and isinstance(base, ast.Attribute)
                and base.attr in shared
                and _dotted_name(base.value) == "self"
            ):
                found.append((node, f"{func.name!r} changes class-level container "
                              f"{base.attr!r}, shared by every instance"))

    def shared_containers(cls: ast.ClassDef) -> set:
        names = {n for n, v in _bound_names(cls.body).items() if _is_mutable_value(v)}
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and _dotted_name(node.value) == "self"
            ):
                names.discard(node.attr)
        return names

    def walk(body: List[ast.stmt], shared: set) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                check_function(stmt, shared)
            elif isinstance(stmt, ast.ClassDef):
                walk(stmt.body, shared_containers(stmt))

    walk(tree.body, set())
    return found


def _is_handler_context(name: str) -> bool:
    """Whether a function name marks interrupt-handler context."""
    if name.endswith(_HANDLER_SUFFIXES):
        return True
    if name.startswith("i") and name[1:] in _I_PREFIXED_BODIES:
        return True
    return False


class _Checker(ast.NodeVisitor):
    """One pass over a module's AST, collecting findings."""

    def __init__(
        self, path: str, sensitive: bool, tree: ast.Module, data_path: bool = False
    ):
        self.path = path
        self.sensitive = sensitive
        self.data_path = data_path
        self.findings: List[Finding] = []
        #: Names (plain and ``self.x``) annotated as sets anywhere in the
        #: file — a cheap whole-file symbol table for ND004.
        self.set_names: set = set()
        self._collect_set_annotations(tree)
        #: Stack of (function name, is_handler_context, returns_float).
        self._func_stack: List[tuple] = []

    # ---------------------------------------------------------------- helpers

    def _collect_set_annotations(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign) and _annotation_is_set(node.annotation):
                target = _dotted_name(node.target)
                if target is not None:
                    self.set_names.add(target)
                    self.set_names.add(target.rsplit(".", 1)[-1])
            elif isinstance(node, ast.arg) and node.annotation is not None:
                if _annotation_is_set(node.annotation):
                    self.set_names.add(node.arg)

    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code=code,
                message=message,
            )
        )

    def _in_handler(self) -> bool:
        return any(is_handler for _name, is_handler, _flt in self._func_stack)

    def _current_returns_float(self) -> bool:
        return bool(self._func_stack) and self._func_stack[-1][2]

    def _current_name(self) -> str:
        return self._func_stack[-1][0] if self._func_stack else "<module>"

    # --------------------------------------------------------------- visitors

    def visit_Module(self, node: ast.Module) -> None:
        for where, message in _shared_state(node):
            self._emit(where, "ND006", message)
        self.generic_visit(node)

    def _visit_funcdef(self, node) -> None:
        returns_float = False
        if node.returns is not None:
            returns_float = _dotted_name(node.returns) == "float"
        self._func_stack.append((node.name, _is_handler_context(node.name), returns_float))
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_funcdef
    visit_AsyncFunctionDef = _visit_funcdef

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            tail = ".".join(dotted.split(".")[-2:])
            if tail in _WALL_CLOCKS:
                self._emit(
                    node,
                    "ND001",
                    f"call to wall clock {dotted!r}; simulated time is sim.now",
                )
            if dotted in _OS_ENTROPY:
                self._emit(
                    node,
                    "ND003",
                    f"call to OS entropy source {dotted!r}; derive values from "
                    f"a seeded RNG instead",
                )
            parts = dotted.split(".")
            if len(parts) == 2 and parts[0] == "random":
                if parts[1] in _GLOBAL_RANDOM_FNS:
                    self._emit(
                        node,
                        "ND002",
                        f"module-level {dotted}() uses the global unseeded RNG; "
                        f"use random.Random(seed)",
                    )
                elif parts[1] == "Random" and not node.args and not node.keywords:
                    self._emit(
                        node,
                        "ND002",
                        "random.Random() without a seed; pass an explicit seed",
                    )
        # NB201: materializing payload bytes in data-path code.
        if (
            self.data_path
            and dotted in ("bytes", "bytearray")
            and node.args
            and any(_touches_payload(arg) for arg in node.args)
        ):
            self._emit(
                node,
                "NB201",
                f"{dotted}(...) materializes a payload copy in data-path "
                f"code; pass the view (docs/buffers.md), or suppress with a "
                f"note at a true process boundary",
            )
        # Set.pop() returns an arbitrary element.
        if (
            self.sensitive
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and not node.args
            and _is_set_expr(node.func.value, self.set_names)
        ):
            self._emit(
                node,
                "ND004",
                "set.pop() removes an arbitrary element; order is not "
                "reproducible",
            )
        self.generic_visit(node)

    def _check_iteration(self, iterable: ast.AST, where: str) -> None:
        if self.sensitive and _is_set_expr(iterable, self.set_names):
            self._emit(
                iterable,
                "ND004",
                f"iteration over a set in {where}; wrap in sorted(...) for a "
                f"reproducible order",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, "a for loop")
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for comp in node.generators:
            self._check_iteration(comp.iter, "a comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # ND005: float arithmetic flowing into *_ns names.

    def _check_ns_value(self, target_name: Optional[str], value: ast.AST, node: ast.AST) -> None:
        if not self.sensitive or target_name is None:
            return
        if not target_name.endswith("_ns"):
            return
        if self._current_returns_float():
            # A function declared ``-> float`` is explicitly in the float
            # domain (e.g. derived rates); ND005 guards integer-ns state.
            return
        if _has_unwrapped_float(value):
            self._emit(
                node,
                "ND005",
                f"float arithmetic assigned to integer-ns value "
                f"{target_name!r}; wrap in int(round(...))",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_ns_value(_dotted_name(target), node.value, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target_name = _dotted_name(node.target)
        if (
            self.sensitive
            and target_name is not None
            and target_name.endswith("_ns")
            and (isinstance(node.op, ast.Div) or _has_unwrapped_float(node.value))
        ):
            self._emit(
                node,
                "ND005",
                f"float accumulation into integer-ns value {target_name!r}; "
                f"use integer math or int(round(...))",
            )
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_ns_value(_dotted_name(node.target), node.value, node)
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if (
            node.value is not None
            and self._current_name().endswith("_ns")
            and not self._current_returns_float()
        ):
            self._check_ns_value(self._current_name(), node.value, node)
        self.generic_visit(node)

    # NS101: discarded generator call.

    def visit_Expr(self, node: ast.Expr) -> None:
        value = node.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in _GENERATOR_APIS
        ):
            self._emit(
                node,
                "NS101",
                f"result of generator API .{value.func.attr}(...) discarded; "
                f"did you mean 'yield from ...'?",
            )
        self.generic_visit(node)

    # NS102 / NS103: yields.

    def visit_Yield(self, node: ast.Yield) -> None:
        value = node.value
        if value is not None:
            if self._in_handler() and isinstance(value, ast.Call):
                callee = _dotted_name(value.func)
                if callee is not None and callee.rsplit(".", 1)[-1] in _FORBIDDEN_HANDLER_OPS:
                    self._emit(
                        node,
                        "NS102",
                        f"handler-context function {self._current_name()!r} "
                        f"yields {callee}; handlers may only compute",
                    )
            if (
                self.sensitive
                and isinstance(value, ast.Constant)
                and value.value is not None
                and type(value.value) is not int  # an int is a process sleep
            ):
                self._emit(
                    node,
                    "NS103",
                    f"yield of constant {value.value!r} to the kernel; a "
                    f"process or thread yields an int delay, an event or an op",
                )
        self.generic_visit(node)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        value = node.value
        if (
            self._in_handler()
            and isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in _BLOCKING_APIS
        ):
            self._emit(
                node,
                "NS102",
                f"handler-context function {self._current_name()!r} calls "
                f"blocking .{value.func.attr}(...); use the non-blocking "
                f"i-prefixed variant",
            )
        self.generic_visit(node)


# ------------------------------------------------------------------- driving


def _is_sensitive(path: str) -> bool:
    parts = os.path.normpath(path).split(os.sep)
    return any(part in SENSITIVE_PARTS for part in parts)


def _is_data_path(path: str) -> bool:
    parts = os.path.normpath(path).split(os.sep)
    return any(part in DATA_PATH_PARTS for part in parts)


def lint_source(
    source: str,
    path: str = "<string>",
    sensitive: Optional[bool] = None,
    select: Optional[set] = None,
    ignore: Optional[set] = None,
    data_path: Optional[bool] = None,
    strict: bool = False,
) -> List[Finding]:
    """Lint one source string; returns surviving findings.

    Under ``strict``, suppression pragmas with no justifying note are
    reported as NL001 — after suppression filtering (a pragma cannot
    silence the complaint about itself) but still subject to
    ``--select``/``--ignore``.
    """
    if sensitive is None:
        sensitive = _is_sensitive(path)
    if data_path is None:
        data_path = _is_data_path(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        # An unparseable file is a finding, not a linter crash.
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                code="E999",
                message=f"syntax error: {exc.msg}",
            )
        ]
    checker = _Checker(path, sensitive, tree, data_path=data_path)
    checker.visit(tree)
    checker.findings.sort(key=lambda f: (f.line, f.col, f.code))
    suppressions = parse_suppressions(source)
    kept = filter_findings(
        checker.findings, suppressions, select=select, ignore=ignore
    )
    if strict and suppressions.unjustified:
        if (not select or "NL001" in select) and (
            not ignore or "NL001" not in ignore
        ):
            for lineno in suppressions.unjustified:
                kept.append(
                    Finding(
                        path=path,
                        line=lineno,
                        col=1,
                        code="NL001",
                        message=(
                            "suppression pragma without a justifying note "
                            "(add trailing text or an explanatory comment "
                            "just above)"
                        ),
                    )
                )
            kept.sort(key=lambda f: (f.line, f.col, f.code))
    return kept


def _iter_python_files(paths: Iterable[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        elif path.endswith(".py"):
            files.append(path)
    return files


def lint_paths(
    paths: Iterable[str],
    select: Optional[set] = None,
    ignore: Optional[set] = None,
    strict: bool = False,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` (deterministic order)."""
    findings: List[Finding] = []
    for filename in _iter_python_files(paths):
        with open(filename, "r", encoding="utf-8") as handle:
            source = handle.read()
        findings.extend(
            lint_source(
                source,
                path=filename,
                select=select,
                ignore=ignore,
                strict=strict,
            )
        )
    return findings


def render_text(findings: List[Finding]) -> str:
    """Compiler-style text report, ending with a clean/summary line."""
    lines = [finding.render() for finding in findings]
    lines.append(
        f"nectarlint: {len(findings)} finding(s)" if findings else "nectarlint: clean"
    )
    return "\n".join(lines)


def render_json(findings: List[Finding]) -> str:
    """JSON report: ``{"findings": [...]}``."""
    return json.dumps(
        {"findings": [finding.to_json() for finding in findings]}, indent=2
    )


def render_rules() -> str:
    """The rule table (for --explain and the docs)."""
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.code} ({rule.name}): {rule.summary}")
        lines.append(f"    why: {rule.rationale}")
    return "\n".join(lines)


def _static_findings(
    paths: List[str],
    select: Optional[set],
    ignore: Optional[set],
) -> List[Finding]:
    """Run nectarflow, then apply ``--select``/``--ignore``."""
    from repro.analysis.flow import analyze_paths

    _project, findings, _tables = analyze_paths(paths)
    if select:
        findings = [f for f in findings if f.code in select]
    if ignore:
        findings = [f for f in findings if f.code not in ignore]
    return findings


def main(argv: List[str]) -> int:
    """CLI entry: ``python -m repro lint <paths> [options]``.

    Exit codes follow compiler convention: 0 for a clean run, 1 when any
    finding survives filtering (strict or not), 2 for usage or internal
    errors — so shell pipelines can tell "found problems" from "could not
    run".
    """
    paths: List[str] = []
    fmt = "text"
    strict = False
    static = False
    select: Optional[set] = None
    ignore: Optional[set] = None
    arguments = list(argv)
    while arguments:
        arg = arguments.pop(0)
        if arg == "--strict":
            strict = True
        elif arg == "--static":
            static = True
        elif arg == "--explain":
            print(render_rules())
            return 0
        elif arg == "--format":
            if not arguments or arguments[0] not in ("text", "json"):
                print("--format requires 'text' or 'json'", file=sys.stderr)
                return 2
            fmt = arguments.pop(0)
        elif arg == "--select":
            if not arguments:
                print("--select requires a comma-separated code list", file=sys.stderr)
                return 2
            select = {code.strip().upper() for code in arguments.pop(0).split(",")}
        elif arg == "--ignore":
            if not arguments:
                print("--ignore requires a comma-separated code list", file=sys.stderr)
                return 2
            ignore = {code.strip().upper() for code in arguments.pop(0).split(",")}
        elif arg.startswith("-"):
            print(f"unknown option {arg!r}", file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    if not paths:
        print("usage: python -m repro lint <paths> [--strict] [--static] "
              "[--format text|json] [--select CODES] [--ignore CODES] "
              "[--explain]",
              file=sys.stderr)
        return 2
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        # A typo'd path must not read as a clean run.
        for path in missing:
            print(f"no such file or directory: {path}", file=sys.stderr)
        return 2
    findings = lint_paths(paths, select=select, ignore=ignore, strict=strict)
    if static:
        findings.extend(_static_findings(paths, select, ignore))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    if fmt == "json":
        rendered = render_json(findings)
    else:
        rendered = render_text(findings)
    try:
        print(rendered)
    except BrokenPipeError:
        # Output piped into head/less that exited early; the verdict stands.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if findings else 0
