"""NB21x: static ownership checking for the zero-copy buffer plane.

Tracks owning references to ``PacketBuffer``/``BufView``/``Frame`` values
through a function's CFG with a powerset dataflow (each reference is
OWNED, RELEASED, or MOVED on some path) and reports, without executing
anything:

* **NB210** — a locally created owner reaches the function exit still
  OWNED on some path: a static leak, proved over *all* paths;
* **NB211** — ``release()`` on a reference that may already be RELEASED:
  a static double free;
* **NB212** — any other use of a reference that may be RELEASED: a
  static use-after-free.

Ownership leaves a function legitimately by ``release()``, by transfer
to a known sink (``send_frame``, ``discard_rx``, ``start_rx_dma``,
``inject_handoff``, ``boundary_egress``), by adoption into an owning
constructor (``Frame(payload=view)``, ``Handoff(payload=...)``), by
``return``, by escaping into object/container state, by capture into a
nested function, or by a call whose interprocedural summary proves the
callee consumes the argument.  Summaries (consumes-param,
returns-owned) are computed over the shared call graph to a fixpoint.

``x.retain()`` mints a *new* owning reference (refcount +1): the result
is a fresh cell, so releasing both the original and the retained view is
correct, while releasing either twice is NB211.  Derived windows
(``prepend``/``strip``/``slice``/``fill_from``) alias their source: they
are the same reference viewed differently.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.flow.callgraph import FunctionInfo, Project, dotted_name
from repro.analysis.flow.cfg import CondMarker, LoopTarget, build_cfg
from repro.analysis.flow.dataflow import run_forward
from repro.analysis.rules import Finding

__all__ = ["OwnershipPass", "FunctionSummary"]

#: Statuses an owning reference can have on some path.
OWNED = "O"
RELEASED = "R"
MOVED = "M"

#: Constructors that mint an owning reference.
_ALLOC_CALLS = {"PacketBuffer.alloc", "PacketBuffer.wrap"}
_OWNER_CLASSES = {"Frame", "PacketBuffer"}
#: Constructors that adopt (consume) an owning argument.
_ADOPTING_CLASSES = {"Frame", "Handoff"}
#: Methods returning a window over the *same* reference (aliases).
_VIEW_DERIVERS = {"prepend", "strip", "strip_back", "slice", "fill_from"}
#: Call names that consume a frame/view argument (ownership sinks).
#: ``_enqueue`` is the HUB forwarder's port queue: once enqueued, the drain
#: process owns the frame and always forwards or releases it.
_SINK_NAMES = {
    "send_frame",
    "discard_rx",
    "start_rx_dma",
    "inject_handoff",
    "boundary_egress",
    "_enqueue",
}


@dataclass
class FunctionSummary:
    """What a callee does with ownership, as seen from a call site."""

    #: Parameter names the function consumes (releases/stores on all paths).
    consumes: FrozenSet[str] = frozenset()
    #: Whether the function's return value carries a fresh owning reference.
    returns_owned: bool = False


class OwnershipPass:
    """Run the NB21x checks over a whole project."""

    def __init__(self, project: Project):
        self.project = project
        self.summaries: Dict[str, FunctionSummary] = {}

    # -- driving --------------------------------------------------------------

    def run(self) -> List[Finding]:
        """Solve summaries to fixpoint, then report per function."""
        qnames = sorted(self.project.functions)
        # Round-robin summary computation: consumes/returns-owned facts
        # propagate at most one call level per round; three rounds cover
        # the repo's deepest ownership-forwarding chains.
        for _round in range(3):
            changed = False
            for qname in qnames:
                summary = self._summarize(self.project.functions[qname])
                if self.summaries.get(qname) != summary:
                    self.summaries[qname] = summary
                    changed = True
            if not changed:
                break
        findings: List[Finding] = []
        for qname in qnames:
            findings.extend(self._check(self.project.functions[qname]))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
        return findings

    # -- per-function analysis -------------------------------------------------

    def _analyze(
        self, info: FunctionInfo
    ) -> Tuple[Dict[str, FrozenSet[str]], List[Finding], "_Analysis"]:
        analysis = _Analysis(info, self.project, self.summaries)
        exit_state = analysis.run()
        return exit_state, analysis.findings, analysis

    def _summarize(self, info: FunctionInfo) -> FunctionSummary:
        exit_state, _findings, analysis = self._analyze(info)
        params = analysis.param_cells
        consumed = []
        for param, cell in params.items():
            statuses = exit_state.get(cell)
            if statuses and OWNED not in statuses:
                consumed.append(param)
        return FunctionSummary(
            consumes=frozenset(consumed),
            returns_owned=analysis.returns_owned,
        )

    def _check(self, info: FunctionInfo) -> List[Finding]:
        exit_state, findings, analysis = self._analyze(info)
        for cell, statuses in sorted(exit_state.items()):
            if OWNED not in statuses:
                continue
            origin = analysis.cell_origins.get(cell)
            if origin is None:
                continue  # parameters: the caller owns them
            line, name = origin
            findings.append(
                Finding(
                    path=info.path,
                    line=line,
                    col=1,
                    code="NB210",
                    message=(
                        f"{info.qname}: buffer reference {name!r} can reach "
                        f"the end of the function still owned — missing "
                        f"release() or transfer on some path"
                    ),
                )
            )
        return findings


# ---------------------------------------------------------------- intrafunction


class _Analysis:
    """One function's ownership dataflow."""

    def __init__(
        self,
        info: FunctionInfo,
        project: Project,
        summaries: Dict[str, FunctionSummary],
    ):
        self.info = info
        self.project = project
        self.summaries = summaries
        self.findings: List[Finding] = []
        self._reported: Set[Tuple[int, str]] = set()
        #: name -> cell representative (alias groups, flow-insensitive).
        self.cells: Dict[str, str] = {}
        #: cell -> (alloc line, display name) for locally minted owners.
        self.cell_origins: Dict[str, Tuple[int, str]] = {}
        #: param name -> cell, for params with ownership events.
        self.param_cells: Dict[str, str] = {}
        self.returns_owned = False
        self._captured = self._captured_names()
        self._build_cells()

    # -- prepass: alias groups and tracked cells ------------------------------

    def _captured_names(self) -> Set[str]:
        """Names referenced inside nested defs/lambdas (treated as escapes)."""
        captured: Set[str] = set()
        for node in ast.walk(self.info.node):
            if node is self.info.node:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Name):
                        captured.add(inner.id)
        return captured

    def _build_cells(self) -> None:
        """Find alloc sites and alias assignments (flow-insensitive)."""
        # Pass 1: allocation sites mint cells.
        for node in ast.walk(self.info.node):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if self._alloc_kind(node.value) is not None:
                cell = target.id
                self.cells[target.id] = cell
                self.cell_origins.setdefault(
                    cell, (node.value.lineno, target.id)
                )
        # Pass 2: alias-deriving assignments union into existing cells;
        # iterate until stable so chains (b = a.strip; c = b.slice) resolve.
        for _ in range(4):
            changed = False
            for node in ast.walk(self.info.node):
                if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                    continue
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                source = self._alias_source(node.value)
                if source is None or source not in self.cells:
                    continue
                cell = self.cells[source]
                if self.cells.get(target.id) != cell:
                    self.cells[target.id] = cell
                    changed = True
            if not changed:
                break
        # Pass 3: parameters that take part in ownership events get cells.
        for param in self._param_names():
            if param in self.cells:
                continue
            if self._has_ownership_event(param):
                cell = f"<param:{param}>"
                self.cells[param] = cell
                self.param_cells[param] = cell

    def _param_names(self) -> List[str]:
        args = self.info.node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        return [n for n in names if n != "self"]

    def _has_ownership_event(self, name: str) -> bool:
        """Whether a parameter takes part in ownership at all.

        Released/retained directly, captured by a nested def/lambda, or
        forwarded as a call argument (where a sink or a consuming callee
        summary may take it) — otherwise the caller keeps ownership and
        there is nothing to track here.
        """
        if name in self._captured:
            return True
        for node in ast.walk(self.info.node):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("release", "retain")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ):
                return True
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Name) and arg.id == name:
                    return True
        return False

    def _alloc_kind(self, value: ast.expr) -> Optional[str]:
        """'alloc' | 'retain' | 'call' when ``value`` mints an owner."""
        if not isinstance(value, ast.Call):
            return None
        callee = dotted_name(value.func)
        if callee in _ALLOC_CALLS:
            return "alloc"
        if callee is not None and callee.split(".")[-1] in ("alloc", "wrap"):
            head = callee.split(".")[0]
            if head in _OWNER_CLASSES:
                return "alloc"
        if isinstance(value.func, ast.Name) and value.func.id in _OWNER_CLASSES:
            return "alloc"
        if (
            isinstance(value.func, ast.Attribute)
            and value.func.attr == "retain"
        ):
            return "retain"
        # x = f(...) where f's summary says the result is owned.
        for callee_qname in self._resolved(value):
            summary = self.summaries.get(callee_qname)
            if summary is not None and summary.returns_owned:
                return "call"
        return None

    def _alias_source(self, value: ast.expr) -> Optional[str]:
        if isinstance(value, ast.Name):
            return value.id
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in _VIEW_DERIVERS
            and isinstance(value.func.value, ast.Name)
        ):
            return value.func.value.id
        return None

    def _resolved(self, call: ast.Call) -> List[str]:
        """Callee qnames for a call node (via the shared call graph)."""
        return self.project._resolve_call(self.info, call)

    # -- the dataflow ---------------------------------------------------------

    def run(self) -> Dict[str, FrozenSet[str]]:
        cfg = build_cfg(self.info.node)
        init: Dict[str, FrozenSet[str]] = {
            cell: frozenset({OWNED}) for cell in self.param_cells.values()
        }

        def transfer(index: int, entry: Dict[str, FrozenSet[str]]):
            state = dict(entry)
            for stmt in cfg.blocks[index].stmts:
                self._transfer_stmt(stmt, state)
            return state

        def join(a, b):
            merged = dict(a)
            for cell, statuses in b.items():
                merged[cell] = merged.get(cell, frozenset()) | statuses
            return merged

        exit_states = run_forward(cfg, init, transfer, join)
        return exit_states.get(cfg.exit.index, init)

    # -- statement effects -----------------------------------------------------

    def _transfer_stmt(self, stmt: ast.stmt, state: Dict[str, FrozenSet[str]]) -> None:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            self._transfer_assign(stmt, state)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                for name in self._tracked_names(stmt.value):
                    self._check_use(stmt, name, state)
                    state[self.cells[name]] = frozenset({MOVED})
                    if self.cells[name] in self.cell_origins:
                        self.returns_owned = True
            return
        if isinstance(stmt, (CondMarker, LoopTarget)):
            for name in self._tracked_names(stmt):
                self._check_use(stmt, name, state)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # A nested def capturing a tracked reference escapes it: the
            # closure may run later, so ownership moves into it.
            for name in self._tracked_names(stmt):
                state[self.cells[name]] = frozenset({MOVED})
            return
        # Everything else: walk calls in order, then remaining uses.
        self._transfer_expr_uses(stmt, state)

    def _transfer_assign(self, stmt: ast.Assign, state) -> None:
        target = stmt.targets[0]
        value = stmt.value
        if isinstance(target, ast.Name) and target.id in self.cells:
            kind = self._alloc_kind(value)
            if kind is not None:
                # Fresh owner (alloc/retain/owned-returning call).
                self._transfer_expr_uses_value(value, state)
                state[self.cells[target.id]] = frozenset({OWNED})
                return
            source = self._alias_source(value)
            if source is not None and source in self.cells:
                # Alias: same cell, nothing changes hands (but deriving a
                # view from a released reference is a use-after-release).
                self._check_use(stmt, source, state)
                return
        # Assignment into attributes/containers escapes the value.
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            for name in self._tracked_names(value):
                self._check_use(stmt, name, state)
                state[self.cells[name]] = frozenset({MOVED})
            # Writing *through* a tracked receiver (v.attr = x) is a use.
            for name in self._tracked_names(target):
                self._check_use(stmt, name, state)
            return
        self._transfer_expr_uses(stmt, state)

    def _transfer_expr_uses(self, stmt: ast.stmt, state) -> None:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                self._transfer_call(node, state)
        for name in self._tracked_names(stmt, skip_calls=True):
            self._check_use(stmt, name, state)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Lambda):
                for name in self._tracked_names(node):
                    state[self.cells[name]] = frozenset({MOVED})

    def _transfer_expr_uses_value(self, value: ast.expr, state) -> None:
        for node in ast.walk(value):
            if isinstance(node, ast.Call):
                self._transfer_call(node, state)

    def _transfer_call(self, call: ast.Call, state) -> None:
        func = call.func
        # v.release() / v.retain() / v.method(...)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            receiver = func.value.id
            if receiver in self.cells:
                cell = self.cells[receiver]
                statuses = state.get(cell, frozenset())
                if func.attr == "release":
                    if RELEASED in statuses:
                        self._report(
                            call,
                            "NB211",
                            f"{self.info.qname}: second release() of buffer "
                            f"reference {receiver!r} reachable on some path",
                        )
                    state[cell] = frozenset({RELEASED}) | (
                        statuses & frozenset({MOVED})
                    )
                    return
                if RELEASED in statuses:
                    self._report(
                        call,
                        "NB212",
                        f"{self.info.qname}: buffer reference {receiver!r} "
                        f"used via .{func.attr}() after release() on some "
                        f"path",
                    )
        # Tracked values passed as arguments.
        sink = self._is_sink(call)
        consumed_params = self._consumed_params(call)
        all_args = list(call.args) + [kw.value for kw in call.keywords]
        arg_names = [
            (index, arg, kw)
            for index, (arg, kw) in enumerate(
                [(a, None) for a in call.args]
                + [(kw.value, kw.arg) for kw in call.keywords]
            )
        ]
        del all_args
        param_order = self._positional_params(call)
        for index, arg, kw in arg_names:
            for name in self._tracked_names(arg):
                cell = self.cells[name]
                statuses = state.get(cell, frozenset())
                if RELEASED in statuses:
                    self._report(
                        call,
                        "NB212",
                        f"{self.info.qname}: buffer reference {name!r} "
                        f"passed to a call after release() on some path",
                    )
                consumed = sink
                if not consumed and kw is not None and kw in consumed_params:
                    consumed = True
                if (
                    not consumed
                    and kw is None
                    and index < len(param_order)
                    and param_order[index] in consumed_params
                ):
                    consumed = True
                if consumed:
                    state[cell] = frozenset({MOVED})

    def _is_sink(self, call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Name) and func.id in _ADOPTING_CLASSES:
            return True
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        return name in _SINK_NAMES

    def _consumed_params(self, call: ast.Call) -> FrozenSet[str]:
        consumed: Set[str] = set()
        for qname in self._resolved(call):
            summary = self.summaries.get(qname)
            if summary is not None:
                consumed |= summary.consumes
        return frozenset(consumed)

    def _positional_params(self, call: ast.Call) -> List[str]:
        """Positional parameter names of the (first) resolved callee."""
        for qname in self._resolved(call):
            info = self.project.functions.get(qname)
            if info is None:
                continue
            args = info.node.args
            names = [a.arg for a in args.posonlyargs + args.args]
            if names and names[0] == "self" and isinstance(call.func, ast.Attribute):
                names = names[1:]
            return names
        return []

    # -- uses ------------------------------------------------------------------

    def _tracked_names(self, node: ast.AST, skip_calls: bool = False) -> List[str]:
        """Tracked variable names referenced in ``node`` (deduplicated).

        With ``skip_calls`` the whole subtree of every Call is pruned
        (calls were already handled by :meth:`_transfer_call`; descending
        into them would count ``x.release()``'s receiver as a fresh use).
        """
        names: List[str] = []

        def rec(child: ast.AST) -> None:
            if skip_calls and isinstance(child, ast.Call):
                return
            if isinstance(child, ast.Name) and child.id in self.cells:
                if child.id not in names:
                    names.append(child.id)
            for sub in ast.iter_child_nodes(child):
                rec(sub)

        rec(node)
        return names

    def _check_use(self, node: ast.AST, name: str, state) -> None:
        statuses = state.get(self.cells[name], frozenset())
        if RELEASED in statuses:
            self._report(
                node,
                "NB212",
                f"{self.info.qname}: buffer reference {name!r} used after "
                f"release() on some path",
            )

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        key = (line, code)
        if key in self._reported:
            return
        self._reported.add(key)
        self.findings.append(
            Finding(
                path=self.info.path,
                line=line,
                col=getattr(node, "col_offset", 0) + 1,
                code=code,
                message=message,
            )
        )
