"""The nectarlint rule framework: registry, findings, suppressions.

Every rule has a stable code (``ND0xx`` for determinism hazards, ``NS1xx``
for simulated-concurrency/sim-safety hazards, ``NB2xx`` for buffer-plane
hazards, ``NP3xx`` for protocol state-machine hazards, ``NL0xx`` for lint
hygiene), a one-line summary, and the paper section whose invariant it
protects.  The per-file AST checks live
in :mod:`repro.analysis.nectarlint` and the whole-program passes
in :mod:`repro.analysis.flow`; this module is pure bookkeeping so the
rule table can be rendered (``--explain``, docs/analysis.md), filtered
(``--select`` / ``--ignore``), and documented without importing the
checkers.

Suppression: a ``# nectarlint: disable=ND004`` comment on the line of the
finding (or ``disable=all``) silences it; ``# nectarlint: disable-file=XXX``
anywhere in a file silences a code for the whole file.  Suppressions must
carry a justifying note — either trailing text on the pragma line
(``disable=ND004 -- why``) or an explanatory comment on one of the three
preceding lines; ``--strict`` reports unjustified suppressions as NL001.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

__all__ = [
    "Finding",
    "Rule",
    "Suppressions",
    "all_rules",
    "get_rule",
    "parse_suppressions",
    "render_markdown_table",
]


@dataclass(frozen=True)
class Rule:
    """One lint rule: stable code, summary, and paper rationale."""

    code: str
    name: str
    summary: str
    #: The paper section / repo promise this rule protects.
    rationale: str


_REGISTRY: Dict[str, Rule] = {}


def _register(code: str, name: str, summary: str, rationale: str) -> Rule:
    if code in _REGISTRY:
        raise ValueError(f"duplicate rule code {code}")
    rule = Rule(code, name, summary, rationale)
    _REGISTRY[code] = rule
    return rule


def all_rules() -> List[Rule]:
    """Every registered rule, in code order."""
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> Rule:
    """Look up one rule by code (raises KeyError for unknown codes)."""
    return _REGISTRY[code]


# --------------------------------------------------------------- determinism

ND001 = _register(
    "ND001",
    "wall-clock",
    "wall-clock time source (time.time, datetime.now, ...)",
    "sim/core.py promises bit-for-bit reproducible runs; simulated time is "
    "sim.now, never the host clock",
)
ND002 = _register(
    "ND002",
    "unseeded-random",
    "module-level random.* call or random.Random() without a seed",
    "unseeded RNG state differs between runs; all randomness must flow from "
    "an explicit seed (cf. apps/workloads.py)",
)
ND003 = _register(
    "ND003",
    "os-entropy",
    "os.urandom / uuid.uuid1 / uuid.uuid4 / secrets.* entropy source",
    "OS entropy is unreproducible by construction; derive identifiers from "
    "seeded RNGs or monotonic counters",
)
ND004 = _register(
    "ND004",
    "set-iteration",
    "iteration over a set/frozenset (unordered) in simulation code",
    "set iteration order depends on hash seeding and insertion history; "
    "event ordering derived from it breaks reproducibility (sort first)",
)
ND005 = _register(
    "ND005",
    "float-ns",
    "unwrapped float arithmetic feeding an integer-nanosecond value",
    "costs are integer ns (model/costs.py); float accumulation drifts across "
    "platforms — wrap in int(round(...)) or use integer math",
)

# ---------------------------------------------------------------- sim-safety

NS101 = _register(
    "NS101",
    "discarded-generator",
    "thread-context generator API called as a bare statement (missing "
    "'yield from')",
    "runtime ops (Mutex lock, mailbox begin_put, ...) are generators; a bare "
    "call builds the generator and discards it — the operation never runs "
    "(paper Sec. 3.1 thread context)",
)
NS102 = _register(
    "NS102",
    "blocking-in-handler",
    "blocking thread-context operation inside i-prefixed / *_handler "
    "interrupt-context code",
    "interrupt handlers run masked and may only yield their compute "
    "nanoseconds as an int (paper Sec. 3.1); "
    "blocking corrupts the engine — use the i-prefixed non-blocking variants",
)
NB201 = _register(
    "NB201",
    "payload-materialization",
    "bytes(...)/bytearray(...) materialization of a frame/message payload "
    "in data-path code",
    "the data path passes repro.buf views end to end (docs/buffers.md); "
    "materializing a payload re-introduces the per-layer host copies the "
    "buffer plane exists to eliminate — use .view()/.mv()/BufView slicing, "
    "or suppress with a note at a true process/application boundary",
)

NS103 = _register(
    "NS103",
    "yield-non-event",
    "yield of a non-int constant to the simulation kernel",
    "processes yield Events or an int delay in ns; threads yield an int "
    "of compute ns or an op (Block/YieldCPU/SetMask); a float, string or "
    "bool constant is a SimulationError or CABError at run time — caught "
    "here instead",
)

# ----------------------------------------------- whole-program (nectarflow)

NB210 = _register(
    "NB210",
    "buf-leak",
    "a PacketBuffer/BufView owner can leave the function on some path with "
    "neither release() nor a transfer to an ownership sink",
    "the buffer plane's refcount discipline (docs/buffers.md) requires every "
    "owning reference to end in release() or a hand-off (send_frame, "
    "Handoff, RX DMA, drop injector); a skipped path is a leak a run only "
    "shows if that path executes — nectarflow proves it over all paths",
)
NB211 = _register(
    "NB211",
    "buf-double-release",
    "release() reachable twice on one path for the same buffer reference",
    "the second release() throws BufError at run time (refcount underflow) "
    "or, worse, frees storage another owner still views — caught here "
    "before any run reaches it",
)
NB212 = _register(
    "NB212",
    "buf-use-after-release",
    "a buffer view used on a path after its reference was released",
    "a released view's storage may already be freed; touching it raises "
    "BufError at run time, but only on the paths a run executes — "
    "nectarflow proves the use unreachable over all paths",
)
NP301 = _register(
    "NP301",
    "fsm-unreachable-state",
    "a protocol state that no transition ever enters",
    "an unreachable state is dead protocol surface: either the transition "
    "code that should reach it is missing (a protocol bug) or the state is "
    "vestigial and belongs out of the machine (paper Sec. 4 state machines)",
)
NP302 = _register(
    "NP302",
    "fsm-no-exit-state",
    "a non-terminal protocol state that is entered but never tested or "
    "exited",
    "a connection parked in a state with no outgoing transition is stuck "
    "forever — the FSM analogue of a leak; every non-terminal state needs "
    "an exit (event, timeout, or error transition)",
)
NP303 = _register(
    "NP303",
    "fsm-unguarded-wait",
    "a waiting state whose only exits fire on packet receipt, with no "
    "timer/retransmit path covering it",
    "a state left only when the peer speaks hangs forever if the packet is "
    "lost; the paper's transports pair every wait with a retransmission "
    "timeout (Sec. 4) — so must every extracted FSM",
)

# ------------------------------------------------------------- lint hygiene

NL001 = _register(
    "NL001",
    "unjustified-suppression",
    "a nectarlint suppression pragma with no justifying note",
    "shipped suppressions must say why the finding is a false positive or "
    "a sanctioned boundary; an unexplained pragma hides bugs from review "
    "(reported under --strict only)",
)


# -------------------------------------------------------------------- output


@dataclass
class Finding:
    """One lint finding, pointing at a file:line:col."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """``path:line:col: CODE message`` (compiler-style)."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_json(self) -> dict:
        """JSON-serializable dict form of this finding."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "summary": (
                _REGISTRY[self.code].summary
                if self.code in _REGISTRY
                else "unparseable source"
            ),
        }


# -------------------------------------------------------------- suppressions

#: Codes are strict comma-separated tokens; everything after them on the
#: pragma line is the (optional) justification note.
_DISABLE_RE = re.compile(
    r"#\s*nectarlint:\s*disable=((?:[A-Za-z0-9]+\s*,\s*)*[A-Za-z0-9]+)(.*)"
)
_DISABLE_FILE_RE = re.compile(
    r"#\s*nectarlint:\s*disable-file=((?:[A-Za-z0-9]+\s*,\s*)*[A-Za-z0-9]+)(.*)"
)

#: How far above a pragma an explanatory comment still counts as its note.
_NOTE_LOOKBACK_LINES = 3


@dataclass
class Suppressions:
    """Per-file suppression table parsed from source comments."""

    #: line number -> codes disabled on that line ("ALL" disables everything).
    by_line: Dict[int, set] = field(default_factory=dict)
    #: codes disabled for the whole file.
    whole_file: set = field(default_factory=set)
    #: pragma lines with no justification note (for NL001 under --strict).
    unjustified: List[int] = field(default_factory=list)

    def active(self, line: int, code: str) -> bool:
        """Whether ``code`` is suppressed at ``line``."""
        if code in self.whole_file or "ALL" in self.whole_file:
            return True
        codes = self.by_line.get(line)
        if codes is None:
            return False
        return code in codes or "ALL" in codes


def _parse_codes(blob: str) -> set:
    return {part.strip().upper() for part in blob.split(",") if part.strip()}


def _has_note(trailing: str, lines: List[str], lineno: int) -> bool:
    """Whether a pragma at ``lineno`` carries a justification.

    Either trailing text after the code list on the pragma line itself
    (``disable=ND004 -- why``), or a ``#`` comment on one of the
    ``_NOTE_LOOKBACK_LINES`` preceding lines (the repo's established idiom
    is an explanatory comment immediately above the boundary site).
    """
    if trailing.strip():
        return True
    start = max(0, lineno - 1 - _NOTE_LOOKBACK_LINES)
    for text in lines[start : lineno - 1]:
        if "#" in text and "nectarlint:" not in text:
            return True
    return False


def parse_suppressions(source: str) -> Suppressions:
    """Scan source text for nectarlint suppression comments."""
    table = Suppressions()
    lines = source.splitlines()
    for lineno, text in enumerate(lines, start=1):
        match = _DISABLE_FILE_RE.search(text)
        if match:
            table.whole_file |= _parse_codes(match.group(1))
            if not _has_note(match.group(2), lines, lineno):
                table.unjustified.append(lineno)
            continue
        match = _DISABLE_RE.search(text)
        if match:
            table.by_line.setdefault(lineno, set()).update(
                _parse_codes(match.group(1))
            )
            if not _has_note(match.group(2), lines, lineno):
                table.unjustified.append(lineno)
    return table


# ---------------------------------------------------------------- rendering


def render_markdown_table() -> str:
    """The rule registry as a markdown table (docs/analysis.md is generated
    from this; ``tests/test_nectarlint_clean.py`` keeps them in sync)."""
    lines = [
        "| code | name | summary |",
        "| --- | --- | --- |",
    ]
    for rule in all_rules():
        summary = rule.summary.replace("|", "\\|")
        lines.append(f"| {rule.code} | {rule.name} | {summary} |")
    return "\n".join(lines)


def filter_findings(
    findings: Iterable[Finding],
    suppressions: Suppressions,
    select: Optional[set] = None,
    ignore: Optional[set] = None,
) -> List[Finding]:
    """Apply suppression comments and --select/--ignore filters."""
    kept = []
    for finding in findings:
        if suppressions.active(finding.line, finding.code):
            continue
        if select and finding.code not in select:
            continue
        if ignore and finding.code in ignore:
            continue
        kept.append(finding)
    return kept
