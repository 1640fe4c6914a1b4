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
name and tree, every class by name, and every function by qualified name
with its ``Assign``/``Compare``/``Call`` nodes — all from one explicit
walk of each module, which the constants scan and the site collection
then read instead of walking the trees again.
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
    #: Its Assign/Compare/Call nodes in source order, nested defs' excluded.
    sites: List[ast.AST] = field(default_factory=list)


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


#: The nodes a state reference counts in: an entry, a test, a call.
_SITE_NODES = (ast.Assign, ast.Compare, ast.Call)


def _index_module(fsm: "FsmPass", path: str, module: str, tree: ast.Module) -> List[ast.AST]:
    """One walk of a module, in source (pre-)order: index its classes and
    functions into ``fsm``, file each site node under the function whose
    body holds it (a nested def owns its own), and return every site node
    of the module."""
    sites: List[ast.AST] = []
    # (node, enclosing class names, enclosing function names, the site list
    # of the function whose body holds the node or None)
    stack = [(tree, (), (), None)]
    while stack:
        node, classes, funcs, owned = stack.pop()
        if isinstance(node, _SITE_NODES):
            sites.append(node)
            if owned is not None:
                owned.append(node)
        elif isinstance(node, ast.ClassDef):
            fsm.classes.setdefault(node.name, []).append((module, path, node))
            classes += (node.name,)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qname = ".".join((module,) + classes + funcs + (node.name,))
            info = FunctionInfo(qname, path, node)
            fsm.functions[qname] = info
            funcs += (node.name,)
            owned = info.sites
        # Children go on last-first so they pop in ast.iter_child_nodes
        # order; ``ctx`` (Load/Store/Del) holds no site.
        for name in reversed(node._fields):
            if name == "ctx":
                continue
            value = getattr(node, name, None)
            if isinstance(value, list):
                for item in reversed(value):
                    if isinstance(item, ast.AST):
                        stack.append((item, classes, funcs, owned))
            elif isinstance(value, ast.AST):
                stack.append((value, classes, funcs, owned))
    return sites


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
        #: path -> every Assign/Compare/Call of the module, in source order.
        self._module_sites: Dict[str, List[ast.AST]] = {}
        for path, tree in trees:
            module = _module_name(path)
            self.modules[path] = (module, tree)
            self._module_sites[path] = _index_module(self, path, module, tree)

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
            for node in self._module_sites[path]:
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
                _collect(active, info)
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


def _collect(watches: List[_Watch], info: FunctionInfo) -> None:
    """Record entries/tests for every watched machine within one function."""
    for node in info.sites:
        site = Site(qname=info.qname, path=info.path, line=node.lineno)
        if isinstance(node, ast.Assign):
            for watch in watches:
                member = watch.ref(node.value)
                if member is not None and _target_matches(watch, node.targets):
                    watch.machine.entries.setdefault(member, []).append(site)
        elif isinstance(node, ast.Compare):
            for watch in watches:
                if watch.attr_filter is not None and not _compare_on_attr(
                    watch.attr_filter, node
                ):
                    continue
                for member in _compare_members(watch, node):
                    watch.machine.tests.setdefault(member, []).append(site)
        else:
            # State refs passed as arguments count as both entry and test
            # cover (helper-mediated transitions: set_state(TCPState.X)).
            args = list(node.args) + [kw.value for kw in node.keywords]
            for watch in watches:
                for arg in args:
                    member = watch.ref(arg)
                    if member is not None:
                        watch.machine.entries.setdefault(member, []).append(site)
                        watch.machine.tests.setdefault(member, []).append(site)


def _target_matches(watch: _Watch, targets: List[ast.expr]) -> bool:
    if watch.attr_filter is None:
        return True
    return any(
        isinstance(t, ast.Attribute) and t.attr == watch.attr_filter
        for t in targets
    )


def _compare_on_attr(attr: str, node: ast.Compare) -> bool:
    sides = [node.left] + list(node.comparators)
    return any(isinstance(s, ast.Attribute) and s.attr == attr for s in sides)


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
