"""NP30x: protocol state machines, lifted from code and checked.

The protocols in this tree encode their FSMs two ways: enum-style
(``class TCPState(enum.Enum)`` with ``conn.state = TCPState.SYN_SENT``
transitions) and constant-style (module string constants assigned to a
``.state`` attribute, as the sync and mailbox planes do).  This pass
lifts both into explicit state machines — members, entry sites, guard
sites, guarded transition edges — and checks the properties a protocol
reviewer reads the RFC diagrams for:

* **NP301** — a declared state no transition ever enters (unreachable:
  either dead spec surface or a missing transition);
* **NP302** — a non-terminal state that is entered but never *tested*:
  once in it, no guarded transition can leave it (a dead end);
* **NP303** — a state whose only exits are guarded in receive-path
  functions, with no timer/timeout/retransmit function covering it: if
  the peer goes silent, the machine waits forever.

The lifted machines also feed ``python -m repro flow --graph``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.flow.callgraph import FunctionInfo, Project
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
    #: Guarded transitions: (from-state or "*", to-state, qname, line).
    edges: List[Tuple[str, str, str, int]] = field(default_factory=list)

    def render(self) -> str:
        """Text dump: members with coverage marks, then guarded edges."""
        lines = [f"fsm {self.name} ({self.kind}) at {self.path}:{self.line}"]
        for member in self.members:
            marks = []
            if member in self.initial:
                marks.append("initial")
            if not self.entries.get(member):
                marks.append("never-entered")
            if not self.tests.get(member):
                marks.append("never-tested")
            suffix = f"  [{', '.join(marks)}]" if marks else ""
            lines.append(f"  state {member}{suffix}")
        for src, dst, qname, line in sorted(set(self.edges)):
            lines.append(f"  {src} -> {dst}  ({qname}:{line})")
        return "\n".join(lines)


class FsmPass:
    """Extract every FSM in the project and run the NP30x checks."""

    def __init__(self, project: Project):
        self.project = project

    # -- extraction ------------------------------------------------------------

    def extract(self) -> List[StateMachine]:
        """Lift every enum- and constant-style machine (sorted by site)."""
        machines: List[StateMachine] = []
        machines.extend(self._extract_enums())
        machines.extend(self._extract_constants())
        machines.sort(key=lambda m: (m.path, m.line))
        return machines

    def _extract_enums(self) -> List[StateMachine]:
        machines = []
        for class_name in sorted(self.project.classes):
            if not class_name.endswith("State"):
                continue
            for module, path, node in self.project.classes[class_name]:
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
                self._collect_enum_sites(machine, class_name)
                if machine.members:
                    machines.append(machine)
        return machines

    def _collect_enum_sites(self, machine: StateMachine, class_name: str) -> None:
        members = set(machine.members)

        def ref(node: ast.AST) -> Optional[str]:
            if (
                isinstance(node, ast.Attribute)
                and node.attr in members
                and (dotted_name(node.value) or "").split(".")[-1] == class_name
            ):
                return node.attr
            return None

        self._collect_sites(machine, ref)

    def _extract_constants(self) -> List[StateMachine]:
        machines = []
        # Per module: string constants, and the attributes they flow into.
        for path in sorted(self.project.modules):
            _source, tree = self.project.modules[path]
            module = self._module_of(path)
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

                self._collect_sites(machine, ref, attr_filter=attr, path=path)
                machines.append(machine)
        return machines

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

    def _module_of(self, path: str) -> str:
        for info in self.project.functions.values():
            if info.path == path:
                return info.module
        return path

    # -- site collection -------------------------------------------------------

    def _collect_sites(
        self,
        machine: StateMachine,
        ref,
        attr_filter: Optional[str] = None,
        path: Optional[str] = None,
    ) -> None:
        """Fill entries/tests/edges by walking every function's body."""
        for qname in sorted(self.project.functions):
            info = self.project.functions[qname]
            if path is not None and info.path != path:
                continue
            _SiteCollector(machine, ref, info, attr_filter).visit(info.node)
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
    """Record entries/tests/edges for one machine within one function."""

    def __init__(
        self,
        machine: StateMachine,
        ref,
        info: FunctionInfo,
        attr_filter: Optional[str],
    ):
        self.machine = machine
        self.ref = ref
        self.info = info
        self.attr_filter = attr_filter
        #: Innermost guard's tested states (for transition edges).
        self._guards: List[Set[str]] = []

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
        member = self.ref(node.value)
        if member is not None and self._target_matches(node.targets):
            self.machine.entries.setdefault(member, []).append(self._site(node))
            sources = self._guards[-1] if self._guards else {"*"}
            for src in sorted(sources):
                self.machine.edges.append(
                    (src, member, self.info.qname, node.lineno)
                )
        self.generic_visit(node)

    def _target_matches(self, targets: List[ast.expr]) -> bool:
        if self.attr_filter is None:
            return True
        return any(
            isinstance(t, ast.Attribute) and t.attr == self.attr_filter
            for t in targets
        )

    def visit_Compare(self, node: ast.Compare) -> None:
        if self.attr_filter is not None and not self._compare_on_attr(node):
            self.generic_visit(node)
            return
        for member in self._compare_members(node):
            self.machine.tests.setdefault(member, []).append(self._site(node))
        self.generic_visit(node)

    def _compare_on_attr(self, node: ast.Compare) -> bool:
        sides = [node.left] + list(node.comparators)
        return any(
            isinstance(s, ast.Attribute) and s.attr == self.attr_filter
            for s in sides
        )

    def _compare_members(self, node: ast.Compare) -> List[str]:
        members: List[str] = []
        for side in [node.left] + list(node.comparators):
            member = self.ref(side)
            if member is not None:
                members.append(member)
            if isinstance(side, (ast.Tuple, ast.List, ast.Set)):
                for elt in side.elts:
                    member = self.ref(elt)
                    if member is not None:
                        members.append(member)
        return members

    def visit_If(self, node: ast.If) -> None:
        tested = set(self._compare_members_in(node.test))
        self.visit(node.test)  # records the condition's own test sites
        self._guards.append(tested or (self._guards[-1] if self._guards else set()))
        for stmt in node.body:
            self.visit(stmt)
        self._guards.pop()
        for stmt in node.orelse:
            self.visit(stmt)

    def _compare_members_in(self, test: ast.expr) -> List[str]:
        members: List[str] = []
        for child in ast.walk(test):
            if isinstance(child, ast.Compare):
                if self.attr_filter is not None and not self._compare_on_attr(
                    child
                ):
                    continue
                members.extend(self._compare_members(child))
        return members

    def visit_Call(self, node: ast.Call) -> None:
        # State refs passed as arguments count as both entry and test cover
        # (helper-mediated transitions: set_state(TCPState.X)).
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            member = self.ref(arg)
            if member is not None:
                self.machine.entries.setdefault(member, []).append(
                    self._site(node)
                )
                self.machine.tests.setdefault(member, []).append(
                    self._site(node)
                )
        self.generic_visit(node)
