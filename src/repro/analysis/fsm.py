"""NP30x: protocol state machines, lifted from code and checked.

The protocols in this tree encode their FSMs two ways: enum-style
(``class TCPState(enum.Enum)`` with ``conn.state = TCPState.SYN_SENT``
transitions) and constant-style (module string constants assigned to a
``.state`` attribute, as the sync and mailbox planes do).  This pass
lifts both into explicit state machines — members, the sites that enter
each state and the sites that test it — and checks the properties a
protocol reviewer reads the RFC diagrams for:

* **NP301** — a declared state no transition ever enters (unreachable:
  either dead spec surface or a missing transition);
* **NP302** — a non-terminal state that is entered but never *tested*:
  once in it, no guarded transition can leave it (a dead end);
* **NP303** — a state whose only exits are guarded in receive-path
  functions, with no timer/timeout/retransmit function covering it: if
  the peer goes silent, the machine waits forever.

``python -m repro lint --static`` runs this pass over the trees the
per-file linter has already parsed
(:func:`~repro.analysis.nectarlint.lint_paths`), and takes them as the
whole program: a machine's states are declared in one module and
entered in another.  The pass indexes only what it reads: each module's
name and tree, every class by name, and every function by qualified name.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.nectarlint import dotted_name
from repro.analysis.rules import Finding

__all__ = ["FsmPass", "StateMachine"]

#: States terminal by naming convention: no exit expected.
_TERMINAL_NAMES = {
    "CLOSED",
    "FREED",
    "DONE",
    "CANCELLED",
    "DEAD",
    "TERMINATED",
    "_FREED",
    "_CANCELLED",
}

#: Function-name fragments that mark the receive path.
_RX_FRAGMENTS = (
    "input",
    "recv",
    "receive",
    "deliver",
    "handle",
    "upcall",
    "_rx",
    "rx_",
    "segment_arrived",
    "on_frame",
    "on_packet",
)

#: Function-name fragments that mark timer/timeout cover.
_TIMER_FRAGMENTS = (
    "timer",
    "timeout",
    "retransmit",
    "expire",
    "tick",
    "probe",
    "deadline",
)


@dataclass
class Site:
    """One occurrence of a state reference."""

    qname: str
    path: str
    line: int


@dataclass
class StateMachine:
    """A lifted FSM: members plus where each is entered and tested."""

    name: str  # e.g. "repro.protocols.tcp.TCPState" or "repro.runtime.syncs.<state>"
    kind: str  # "enum" | "constants"
    path: str
    line: int
    members: List[str] = field(default_factory=list)
    member_lines: Dict[str, int] = field(default_factory=dict)
    initial: Set[str] = field(default_factory=set)
    entries: Dict[str, List[Site]] = field(default_factory=dict)
    tests: Dict[str, List[Site]] = field(default_factory=dict)


@dataclass
class _Watch:
    """What site collection looks for on behalf of one machine."""

    machine: StateMachine
    #: The member a node names, or None.
    ref: Callable[[ast.AST], Optional[str]]
    #: Constant-style machines: only ``.<attr>`` targets and comparisons
    #: count, and only in the declaring module.
    attr_filter: Optional[str] = None
    path: Optional[str] = None


@dataclass
class FunctionInfo:
    """One function or method of the analyzed modules."""

    qname: str
    path: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef


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
    """Index one module's classes and functions (with their scope)."""

    def __init__(self, fsm: "FsmPass", path: str, module: str):
        self.fsm = fsm
        self.path = path
        self.module = module
        self._class_stack: List[str] = []
        self._func_stack: List[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.fsm.classes.setdefault(node.name, []).append(
            (self.module, self.path, node)
        )
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_func(self, node) -> None:
        scope = self._class_stack + self._func_stack
        qname = ".".join([self.module] + scope + [node.name])
        self.fsm.functions[qname] = FunctionInfo(qname, self.path, node)
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func


class FsmPass:
    """Index the given modules, extract every FSM, run the NP30x checks."""

    def __init__(self, trees: Iterable[Tuple[str, ast.Module]]):
        """Index ``(path, parsed module)`` pairs, taken as the whole program."""
        #: path -> (module name, parsed module).
        self.modules: Dict[str, Tuple[str, ast.Module]] = {}
        #: qualified name (``module.Class.method``) -> function.
        self.functions: Dict[str, FunctionInfo] = {}
        #: class name -> [(module name, path, node)].
        self.classes: Dict[str, List[Tuple[str, str, ast.ClassDef]]] = {}
        for path, tree in trees:
            module = _module_name(path)
            self.modules[path] = (module, tree)
            _Indexer(self, path, module).visit(tree)

    # -- extraction ------------------------------------------------------------

    def extract(self) -> List[StateMachine]:
        """Lift every enum- and constant-style machine (sorted by site)."""
        watches = self._extract_enums() + self._extract_constants()
        self._collect_sites(watches)
        machines = [watch.machine for watch in watches]
        machines.sort(key=lambda m: (m.path, m.line))
        return machines

    def _extract_enums(self) -> List[_Watch]:
        watches = []
        for class_name in sorted(self.classes):
            if not class_name.endswith("State"):
                continue
            for module, path, node in self.classes[class_name]:
                if not any(
                    (dotted_name(base) or "").split(".")[-1].endswith("Enum")
                    for base in node.bases
                ):
                    continue
                machine = StateMachine(
                    name=f"{module}.{class_name}",
                    kind="enum",
                    path=path,
                    line=node.lineno,
                )
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                        target = stmt.targets[0]
                        if isinstance(target, ast.Name):
                            machine.members.append(target.id)
                            machine.member_lines[target.id] = stmt.lineno
                if machine.members:
                    watches.append(
                        _Watch(machine, self._enum_ref(set(machine.members), class_name))
                    )
        return watches

    @staticmethod
    def _enum_ref(members: Set[str], class_name: str):
        def ref(node: ast.AST) -> Optional[str]:
            if (
                isinstance(node, ast.Attribute)
                and node.attr in members
                and (dotted_name(node.value) or "").split(".")[-1] == class_name
            ):
                return node.attr
            return None

        return ref

    def _extract_constants(self) -> List[_Watch]:
        watches = []
        # Per module: string constants, and the attributes they flow into.
        for path in sorted(self.modules):
            module, tree = self.modules[path]
            constants: Dict[str, Tuple[str, int]] = {}
            for stmt in tree.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)
                ):
                    constants[stmt.targets[0].id] = (
                        stmt.value.value,
                        stmt.lineno,
                    )
            if not constants:
                continue
            # Which constants participate in a state field? (assigned to or
            # compared against an attribute — unrelated strings stay out).
            # Only fields literally named ``state`` are lifted: other
            # string-tag fields (fault kinds, span categories) are
            # configuration vocabularies, not machines.
            attrs: Dict[str, Set[str]] = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in constants
                    ):
                        attrs.setdefault(target.attr, set()).add(node.value.id)
                if isinstance(node, ast.Compare):
                    for attr, names in self._compare_refs(node, constants):
                        attrs.setdefault(attr, set()).update(names)
            for attr in sorted(attrs):
                if attr != "state":
                    continue
                members = sorted(
                    attrs[attr], key=lambda n: constants[n][1]
                )
                if len(members) < 2:
                    continue
                first_line = constants[members[0]][1]
                machine = StateMachine(
                    name=f"{module}.<{attr}>",
                    kind="constants",
                    path=path,
                    line=first_line,
                )
                machine.members = members
                machine.member_lines = {
                    name: constants[name][1] for name in members
                }
                member_set = set(members)

                def ref(node: ast.AST, _members=member_set) -> Optional[str]:
                    if isinstance(node, ast.Name) and node.id in _members:
                        return node.id
                    return None

                watches.append(_Watch(machine, ref, attr_filter=attr, path=path))
        return watches

    def _compare_refs(self, node: ast.Compare, constants) -> List[Tuple[str, Set[str]]]:
        """(state attr, constant names) pairs for one comparison."""
        sides = [node.left] + list(node.comparators)
        attrs = [s.attr for s in sides if isinstance(s, ast.Attribute)]
        names: Set[str] = set()
        for side in sides:
            if isinstance(side, ast.Name) and side.id in constants:
                names.add(side.id)
            if isinstance(side, (ast.Tuple, ast.List, ast.Set)):
                for elt in side.elts:
                    if isinstance(elt, ast.Name) and elt.id in constants:
                        names.add(elt.id)
        if not attrs or not names:
            return []
        return [(attr, names) for attr in attrs]

    # -- site collection -------------------------------------------------------

    def _collect_sites(self, watches: List[_Watch]) -> None:
        """Fill every machine's entries/tests in one walk of each function
        body, in qualified-name order."""
        anywhere = [watch for watch in watches if watch.path is None]
        by_path: Dict[str, List[_Watch]] = {}
        for watch in watches:
            if watch.path is not None:
                by_path.setdefault(watch.path, []).append(watch)
        for qname in sorted(self.functions):
            info = self.functions[qname]
            active = anywhere + by_path.get(info.path, [])
            if active:
                _SiteCollector(active, info).visit(info.node)
        for machine in (watch.machine for watch in watches):
            # Initial states: entered in a constructor.
            for member, sites in machine.entries.items():
                for site in sites:
                    if site.qname.endswith(".__init__"):
                        machine.initial.add(member)
            # Enum convention: the first member is the start state.
            if machine.kind == "enum" and machine.members:
                machine.initial.add(machine.members[0])

    # -- checks ----------------------------------------------------------------

    def run(self) -> List[Finding]:
        """Extract all machines and report NP301/NP302/NP303 findings."""
        findings: List[Finding] = []
        for machine in self.extract():
            findings.extend(self._check(machine))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
        return findings

    def _check(self, machine: StateMachine) -> List[Finding]:
        findings: List[Finding] = []
        for member in machine.members:
            entries = machine.entries.get(member, [])
            tests = machine.tests.get(member, [])
            if not entries and member not in machine.initial:
                findings.append(
                    Finding(
                        path=machine.path,
                        line=machine.member_lines.get(member, machine.line),
                        col=1,
                        code="NP301",
                        message=(
                            f"{machine.name}: state {member} is declared but "
                            f"no transition ever enters it"
                        ),
                    )
                )
                continue
            terminal = member.upper().lstrip("_") in {
                n.lstrip("_") for n in _TERMINAL_NAMES
            }
            if entries and not tests and not terminal:
                findings.append(
                    Finding(
                        path=entries[0].path,
                        line=entries[0].line,
                        col=1,
                        code="NP302",
                        message=(
                            f"{machine.name}: state {member} is entered here "
                            f"but never tested — no guarded transition can "
                            f"leave it"
                        ),
                    )
                )
                continue
            if entries and tests and not terminal:
                rx_only = all(self._is_rx(site.qname) for site in tests)
                covered = any(
                    self._is_timer(site.qname)
                    for site in tests + entries
                )
                if rx_only and not covered:
                    findings.append(
                        Finding(
                            path=entries[0].path,
                            line=entries[0].line,
                            col=1,
                            code="NP303",
                            message=(
                                f"{machine.name}: state {member} can only be "
                                f"left from receive-path guards and no "
                                f"timer/timeout path covers it — a silent "
                                f"peer wedges the machine here"
                            ),
                        )
                    )
        return findings

    def _is_rx(self, qname: str) -> bool:
        name = qname.rsplit(".", 1)[-1].lower()
        return any(fragment in name for fragment in _RX_FRAGMENTS)

    def _is_timer(self, qname: str) -> bool:
        name = qname.rsplit(".", 1)[-1].lower()
        return any(fragment in name for fragment in _TIMER_FRAGMENTS)


class _SiteCollector(ast.NodeVisitor):
    """Record entries/tests for every watched machine within one function."""

    def __init__(self, watches: List[_Watch], info: FunctionInfo):
        self.watches = watches
        self.info = info

    def _site(self, node: ast.AST) -> Site:
        return Site(
            qname=self.info.qname,
            path=self.info.path,
            line=getattr(node, "lineno", 1),
        )

    def visit_FunctionDef(self, node) -> None:
        if node is self.info.node:
            self.generic_visit(node)
        # Nested defs are their own FunctionInfos; skip to avoid double counting.

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node: ast.Assign) -> None:
        for watch in self.watches:
            member = watch.ref(node.value)
            if member is not None and self._target_matches(watch, node.targets):
                watch.machine.entries.setdefault(member, []).append(self._site(node))
        self.generic_visit(node)

    @staticmethod
    def _target_matches(watch: _Watch, targets: List[ast.expr]) -> bool:
        if watch.attr_filter is None:
            return True
        return any(
            isinstance(t, ast.Attribute) and t.attr == watch.attr_filter
            for t in targets
        )

    def visit_Compare(self, node: ast.Compare) -> None:
        for watch in self.watches:
            if watch.attr_filter is not None and not self._compare_on_attr(
                watch.attr_filter, node
            ):
                continue
            for member in self._compare_members(watch, node):
                watch.machine.tests.setdefault(member, []).append(self._site(node))
        self.generic_visit(node)

    @staticmethod
    def _compare_on_attr(attr: str, node: ast.Compare) -> bool:
        sides = [node.left] + list(node.comparators)
        return any(isinstance(s, ast.Attribute) and s.attr == attr for s in sides)

    @staticmethod
    def _compare_members(watch: _Watch, node: ast.Compare) -> List[str]:
        members: List[str] = []
        for side in [node.left] + list(node.comparators):
            member = watch.ref(side)
            if member is not None:
                members.append(member)
            if isinstance(side, (ast.Tuple, ast.List, ast.Set)):
                for elt in side.elts:
                    member = watch.ref(elt)
                    if member is not None:
                        members.append(member)
        return members

    def visit_Call(self, node: ast.Call) -> None:
        # State refs passed as arguments count as both entry and test cover
        # (helper-mediated transitions: set_state(TCPState.X)).
        args = list(node.args) + [kw.value for kw in node.keywords]
        for watch in self.watches:
            for arg in args:
                member = watch.ref(arg)
                if member is not None:
                    watch.machine.entries.setdefault(member, []).append(
                        self._site(node)
                    )
                    watch.machine.tests.setdefault(member, []).append(
                        self._site(node)
                    )
        self.generic_visit(node)
