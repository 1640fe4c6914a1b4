"""The fault catalogue: every seeded fault case, and the one runner.

A :class:`Case` is everything needed to reproduce one fault run on
demand: a fleet topology, explicit flows (so the traffic matrix is part
of the case's definition rather than a seed accident), a seeded
:class:`~repro.faults.plan.FaultPlan` and a horizon.  :func:`run_case`
builds the fleet, attaches an optional flight recorder and then the
plan, installs the flows as a :class:`~repro.cluster.workload.Workload`
and runs to the horizon; every consumer runs a case through it.

Two verdicts read the one catalogue:

* The five **chaos** cases carry no ground truth.  ``bench chaos``
  (:mod:`repro.faults.campaign`) checks that every flow delivered exactly
  once, in order, bit-exact, and that two runs are identical.  They share
  one rig — four CABs ``cab-a`` .. ``cab-d`` on one HUB — and one load of
  four flows from ``cab-a``: an RMP stream to ``cab-b``, an NMP multicast
  to {``cab-b``, ``cab-c``, ``cab-d``}, echoed RPCs to ``cab-b`` and a TCP
  byte stream to ``cab-b``.  The plans are tuned so each recovery path
  fires (retransmits, CRC drops, NACK suppression) while staying inside
  the bounded-retry limits: a chaos case is supposed to *pass*.
* The six **ops incidents** add an observation cadence and
  :class:`GroundTruth` labels — the faulty site(s), the onset time and
  the blast radius — that ``bench ops`` (:mod:`repro.ops.lab`) scores
  detection, localization and mitigation against.  They cover the
  classic diagnosis shapes: a CAB that goes *silent* (``flapping-cab``,
  ``zombie-tcp``), a *link* that corrupts/eats frames between two HUBs
  (``lossy-fiber``), *congestion* that is a symptom two hops away from
  its cause (``fifo-cascade``), a component that *errors visibly*
  (``rmp-fanout-loss``) and a *straggler* that is slow without erroring
  at all (``slow-cab``).  Their flows must still be in flight when the
  fault window opens, so message counts come from the cost model's time
  scales (one RMP stop-and-wait message round-trips in roughly 150 us on
  an idle fabric).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cluster.fleet import FleetSpec, build_fleet_system, line_fleet
from repro.cluster.workload import Flow, Workload, WorkloadSpec
from repro.errors import ConfigurationError, ProtocolError
from repro.faults.injector import Injector
from repro.faults.plan import (
    CORRUPT,
    CRASH,
    DROP,
    MBOX_LOSE,
    RX_DROP,
    SQUEEZE,
    STALL,
    FaultPlan,
    FaultSpec,
)
from repro.sim.core import SimulationError
from repro.system import NectarSystem
from repro.units import ms, seconds, us

__all__ = [
    "Case",
    "CaseRun",
    "GroundTruth",
    "behavior_signature",
    "build",
    "catalogue",
    "chaos_cases",
    "incidents",
    "run_case",
]


@dataclass(frozen=True)
class GroundTruth:
    """The answer key the ops evaluators score against."""

    #: Acceptable localization answers (first entry is the canonical one):
    #: a CAB name, a ``"cab.fiber-in"``-style FIFO site, or a
    #: ``"hubA<->hubB"`` link label.
    sites: tuple
    #: Simulated time (ns) at which the fault first becomes active.
    onset_ns: int
    #: Names of the flows directly exposed to the fault (they traverse a
    #: faulty site while it is active).
    blast_radius: tuple


@dataclass(frozen=True)
class Case:
    """One reproducible fault run, fully specified."""

    name: str
    summary: str
    fleet: FleetSpec
    flows: tuple
    plan: FaultPlan
    horizon_ns: int
    #: The flight recorder's sampling cadence (ops incidents only).
    cadence_ns: Optional[int] = None
    #: The ops lab's answer key; None for a chaos case.
    truth: Optional[GroundTruth] = None
    #: When true the lab also checks that a 2-worker sharded run of the
    #: same fleet + flows + plan reproduces the single-process protocol
    #: digest (only meaningful for occurrence-independent plans; see
    #: docs/faults.md).
    shard_check: bool = False

    @property
    def workload(self) -> WorkloadSpec:
        """The flows as a workload spec (what a sharded run is handed)."""
        return WorkloadSpec(explicit_flows=self.flows)


# ------------------------------------------------------------------ runner


@dataclass
class CaseRun:
    """What one run of a case left behind."""

    system: NectarSystem
    workload: Workload
    injector: Injector
    #: ``"ProtocolError: ..."`` / ``"SimulationError: ..."`` if the run
    #: raised one, else None.
    error: Optional[str]


def run_case(
    case: Case,
    plan: Optional[FaultPlan] = None,
    recorder=None,
    until_ns: Optional[int] = None,
) -> CaseRun:
    """Build the case's fleet, attach ``recorder`` (if any) and then the
    plan (``case.plan`` unless one is given), install the flows, and run
    to ``until_ns`` (default: the case's horizon)."""
    system = build_fleet_system(case.fleet)
    if recorder is not None:
        recorder.attach(system)
    injector = system.attach_fault_plan(case.plan if plan is None else plan)
    workload = Workload(case.workload, case.fleet)
    workload.install(system)
    error = None
    try:
        system.run(until=case.horizon_ns if until_ns is None else until_ns)
    except (ProtocolError, SimulationError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    return CaseRun(system, workload, injector, error)


def behavior_signature(run: CaseRun) -> Tuple:
    """Everything the simulation *did*, independent of observation: equal
    between two runs iff they behaved identically.

    Deliberately excludes the event sequence counter and the last event's
    time: a flight recorder's timer events consume sequence numbers
    without reordering anyone else's and sample up to the horizon, so
    ``sim.events_scheduled`` and ``sim.last_event_ns`` differ between
    observed and unobserved runs of identical behavior.  (``sim.now`` is
    the horizon, or the instant a run raised.)
    """
    workload = run.workload
    flows = tuple(
        (name, tuple(sorted(record.items())), workload.digests[name])
        for name, record in sorted(workload.flow_results.items())
    )
    return (
        run.system.sim.now,
        tuple(run.system.metrics.counters().items()),
        tuple(run.injector.fired),
        flows,
        run.error,
    )


# ------------------------------------------------------------ chaos cases

#: The chaos rig: the paper's two-CAB measurement rig widened to four.
_CHAOS_FLEET = FleetSpec(
    hubs=("hub0",),
    links=(),
    cabs=tuple(
        (f"cab-{letter}", "hub0", port) for port, letter in enumerate("abcd")
    ),
)

_CHAOS_FLOWS = (
    Flow(index=0, kind="rmp", src="cab-a", dst="cab-b", messages=12, size=288),
    Flow(
        index=1,
        kind="mcast",
        src="cab-a",
        dst="cab-d",
        messages=10,
        size=128,
        members=("cab-b", "cab-c", "cab-d"),
    ),
    Flow(index=2, kind="rpc", src="cab-a", dst="cab-b", messages=8, size=80),
    Flow(index=3, kind="tcp", src="cab-a", dst="cab-b", messages=1, size=6144),
)

#: Simulated-time budget for one chaos run.  TCP's exponential RTO
#: backoff dominates the worst case; anything unfinished by now is stuck.
_CHAOS_HORIZON_NS = seconds(30)


def _chaos(name: str, summary: str, seed: int, *specs: FaultSpec) -> Case:
    return Case(
        name=name,
        summary=summary,
        fleet=_CHAOS_FLEET,
        flows=_CHAOS_FLOWS,
        plan=FaultPlan(seed=seed, specs=specs),
        horizon_ns=_CHAOS_HORIZON_NS,
    )


def lossy_link(seed: int) -> Case:
    """Independent per-frame loss: the bread-and-butter recovery workout."""
    return _chaos(
        "lossy-link",
        "per-frame seeded drop + corruption on every link, whole run",
        seed,
        FaultSpec(kind=DROP, where="*", probability=0.06),
        FaultSpec(kind=CORRUPT, where="*", probability=0.06),
    )


def bursty_corruption(seed: int) -> Case:
    """Short CRC storms with clean air in between."""
    return _chaos(
        "bursty-corruption",
        "two corruption storms; most frames inside a burst are mangled",
        seed,
        FaultSpec(kind=CORRUPT, where="*", probability=0.7, window_ns=(us(200), ms(1))),
        FaultSpec(kind=CORRUPT, where="*", probability=0.7, window_ns=(ms(2), ms(3))),
        FaultSpec(kind=DROP, where="*", probability=0.02),
    )


def cab_blackout(seed: int) -> Case:
    """``cab-b`` crashes and restarts twice.

    The first blackout sits inside the first few hundred microseconds,
    where the flows are busiest, so the outage actually eats in-flight
    frames rather than arriving after the traffic has finished.
    """
    return _chaos(
        "cab-blackout",
        "cab-b blacks out twice; light background drop elsewhere",
        seed,
        FaultSpec(kind=CRASH, where="cab-b", window_ns=(us(200), us(600))),
        FaultSpec(kind=CRASH, where="cab-b", window_ns=(ms(2), us(2600))),
        FaultSpec(kind=DROP, where="*", probability=0.03),
    )


def overloaded_fifo(seed: int) -> Case:
    """Back-pressure, with light mailbox loss at ``tcp-input`` modelling
    host-interface pressure."""
    return _chaos(
        "overloaded-fifo",
        "squeezed input FIFO, stalled link, mailbox loss",
        seed,
        FaultSpec(
            kind=SQUEEZE,
            where="cab-b.fiber-in",
            squeeze_bytes=28 * 1024,
            window_ns=(ms(1), ms(4)),
        ),
        FaultSpec(kind=STALL, where="cab-a", stall_ns=us(40), probability=0.5),
        FaultSpec(kind=MBOX_LOSE, where="tcp-input", probability=0.05),
        FaultSpec(kind=CORRUPT, where="*", probability=0.04),
    )


def multicast_storm(seed: int) -> Case:
    """Branch-directed replica drops + an egress corruption window.

    The directed ``src->dst`` drop specs fire on individual crossbar
    fan-out branches, so one multicast frame can reach ``cab-b`` while its
    siblings' replicas vanish — exactly the asymmetric loss NORM-style
    NACK suppression and repair multicast exist for.  The branches aimed
    at are the two members no unicast flow uses, so the RPC to ``cab-b``
    stays inside its five tries; a light undirected drop keeps the
    unicast flows honest too.
    """
    return _chaos(
        "multicast-storm",
        "branch-directed multicast replica drops + an egress corruption window",
        seed,
        FaultSpec(kind=DROP, where="cab-a->cab-c", probability=0.3),
        FaultSpec(kind=DROP, where="cab-a->cab-d", probability=0.2),
        FaultSpec(kind=CORRUPT, where="*", probability=0.4, window_ns=(us(400), ms(1))),
        FaultSpec(kind=DROP, where="*", probability=0.02),
    )


# ------------------------------------------------------------ ops incidents


def _flows(*specs) -> tuple:
    """Build a Flow tuple from (kind, src, dst, messages, size) rows."""
    return tuple(
        Flow(index=index, kind=kind, src=src, dst=dst, messages=messages, size=size)
        for index, (kind, src, dst, messages, size) in enumerate(specs)
    )


def flapping_cab(seed: int) -> Case:
    """A CAB blacks out twice; its peers see drops and silence."""
    flows = _flows(
        ("rmp", "cab-00-00", "cab-00-01", 60, 256),
        ("rmp", "cab-00-02", "cab-00-01", 60, 256),
        ("rmp", "cab-00-00", "cab-00-02", 60, 256),
        ("rmp", "cab-00-03", "cab-00-00", 60, 256),
        ("rmp", "cab-00-00", "cab-00-03", 60, 256),
    )
    plan = FaultPlan(
        seed=seed,
        specs=(
            FaultSpec(kind=CRASH, where="cab-00-01", window_ns=(ms(2), ms(3))),
            FaultSpec(kind=CRASH, where="cab-00-01", window_ns=(ms(6), ms(7))),
        ),
    )
    return Case(
        name="flapping-cab",
        summary="CAB cab-00-01 blacks out twice; peers retransmit through it",
        fleet=line_fleet(1, 4, hub_ports=8),
        flows=flows,
        plan=plan,
        horizon_ns=ms(20),
        cadence_ns=us(250),
        truth=GroundTruth(
            sites=("cab-00-01",),
            onset_ns=ms(2),
            blast_radius=("rmp-00", "rmp-01"),
        ),
    )


def lossy_fiber(seed: int) -> Case:
    """The inter-HUB fiber corrupts and eats cross-traffic in one window."""
    # Every flow crosses the damaged fiber, each CAB sending one to both
    # CABs across it: a loss pauses its flow for a whole RTO (50 ms, past
    # the horizon), so the window's occurrences come from many flows'
    # first losses, and every CAB keeps receiving from a flow it has not
    # lost yet (a CAB gone quiet would read as a crash).  Corruption
    # dominates on purpose: a damaged fiber mostly mangles frames —
    # CRC-rejected at the *receiving* CAB, which plants error counters on
    # both HUBs' CABs, the triangulation signal the link-inference
    # localizer needs.
    flows = _flows(
        ("rmp", "cab-00-00", "cab-01-00", 70, 256),
        ("rmp", "cab-01-01", "cab-00-01", 70, 256),
        ("rmp", "cab-00-01", "cab-01-01", 70, 256),
        ("rmp", "cab-01-00", "cab-00-00", 70, 256),
        ("rmp", "cab-00-00", "cab-01-01", 70, 256),
        ("rmp", "cab-01-01", "cab-00-00", 70, 256),
        ("rmp", "cab-00-01", "cab-01-00", 70, 256),
        ("rmp", "cab-01-00", "cab-00-01", 70, 256),
    )
    window = (ms(1), ms(8))
    pairs = (
        "cab-00-00->cab-01-00",
        "cab-00-01->cab-01-01",
        "cab-01-00->cab-00-00",
        "cab-01-01->cab-00-01",
    )
    specs = tuple(
        FaultSpec(kind=CORRUPT, where=pair, probability=0.3, window_ns=window)
        for pair in pairs
    ) + tuple(
        FaultSpec(kind=DROP, where=pair, probability=0.15, window_ns=window)
        for pair in pairs
    )
    return Case(
        name="lossy-fiber",
        summary="the hub00<->hub01 fiber drops and corrupts cross-traffic",
        fleet=line_fleet(2, 2, hub_ports=8),
        flows=flows,
        plan=FaultPlan(seed=seed, specs=specs),
        horizon_ns=ms(16),
        cadence_ns=us(250),
        truth=GroundTruth(
            sites=("hub00<->hub01",),
            onset_ns=ms(1),
            blast_radius=("rmp-00", "rmp-01", "rmp-02", "rmp-03"),
        ),
    )


def fifo_cascade(seed: int) -> Case:
    """A squeezed input FIFO back-pressures every flow aimed at it."""
    flows = _flows(
        ("rmp", "cab-00-00", "cab-00-01", 50, 512),
        ("rmp", "cab-00-02", "cab-00-01", 50, 512),
        ("rmp", "cab-00-01", "cab-00-00", 40, 128),
        ("rmp", "cab-00-02", "cab-00-00", 40, 128),
    )
    plan = FaultPlan(
        seed=seed,
        specs=(
            FaultSpec(
                kind=SQUEEZE,
                where="cab-00-01.fiber-in",
                squeeze_bytes=7 * 1024,
                window_ns=(ms(2), ms(8)),
            ),
        ),
    )
    return Case(
        name="fifo-cascade",
        summary="cab-00-01's input FIFO loses most of its capacity under load",
        fleet=line_fleet(1, 3, hub_ports=8),
        flows=flows,
        plan=plan,
        horizon_ns=ms(18),
        cadence_ns=us(250),
        truth=GroundTruth(
            sites=("cab-00-01.fiber-in", "cab-00-01"),
            onset_ns=ms(2),
            blast_radius=("rmp-00", "rmp-01"),
        ),
    )


def zombie_tcp(seed: int) -> Case:
    """A long blackout turns TCP flows into retransmit-storm zombies."""
    flows = _flows(
        ("tcp", "cab-00-00", "cab-00-01", 1, 24576),
        ("tcp", "cab-00-02", "cab-00-01", 1, 24576),
        ("rmp", "cab-00-00", "cab-00-02", 500, 256),
        ("tcp", "cab-00-03", "cab-00-02", 1, 4096),
    )
    plan = FaultPlan(
        seed=seed,
        specs=(
            FaultSpec(kind=CRASH, where="cab-00-01", window_ns=(us(500), ms(120))),
            FaultSpec(
                kind=MBOX_LOSE,
                where="cab-00-01:tcp-input",
                probability=0.25,
                window_ns=(ms(120), ms(300)),
            ),
        ),
    )
    return Case(
        name="zombie-tcp",
        summary="a long cab-00-01 blackout leaves TCP flows retrying into it",
        fleet=line_fleet(1, 4, hub_ports=8),
        flows=flows,
        plan=plan,
        horizon_ns=ms(400),
        cadence_ns=ms(5),
        truth=GroundTruth(
            sites=("cab-00-01",),
            onset_ns=us(500),
            blast_radius=("tcp-00", "tcp-01"),
        ),
    )


def rmp_fanout_loss(seed: int) -> Case:
    """One fan-out leg silently drops every third received frame."""
    flows = _flows(
        ("rmp", "cab-00-00", "cab-00-01", 40, 256),
        ("rmp", "cab-00-00", "cab-00-02", 40, 256),
        ("rmp", "cab-00-00", "cab-00-03", 40, 256),
        ("rmp", "cab-00-00", "cab-00-04", 40, 256),
        ("rmp", "cab-00-01", "cab-00-00", 30, 128),
        # A second, faster feed into the victim so the every-3rd drop
        # schedule reaches its first firing within a cadence of onset.
        ("rmp", "cab-00-03", "cab-00-02", 40, 256),
        # Keeps cab-00-03 receiving once its feed into the victim waits
        # out an RTO, so the silence rule does not indict it.
        ("rmp", "cab-00-04", "cab-00-03", 80, 256),
    )
    plan = FaultPlan(
        seed=seed,
        specs=(
            FaultSpec(
                kind=RX_DROP,
                where="cab-00-02",
                every_nth=3,
                window_ns=(ms(2), ms(8)),
            ),
        ),
    )
    return Case(
        name="rmp-fanout-loss",
        summary="cab-00-02 silently discards every third received frame",
        fleet=line_fleet(1, 5, hub_ports=8),
        flows=flows,
        plan=plan,
        horizon_ns=ms(24),
        cadence_ns=us(500),
        truth=GroundTruth(
            sites=("cab-00-02",),
            onset_ns=ms(2),
            blast_radius=("rmp-01", "rmp-05"),
        ),
    )


def slow_cab(seed: int) -> Case:
    """A straggler CAB stalls on every egress frame without erroring."""
    # Every CAB that acks a stalled flow also carries healthy traffic for
    # the whole stall window, so only the victim's send rate collapses
    # (the straggler localizer compares pre-alert vs flagged-window rates).
    flows = _flows(
        ("rmp", "cab-01-00", "cab-00-00", 45, 512),
        ("rmp", "cab-01-00", "cab-01-01", 40, 256),
        ("rmp", "cab-00-01", "cab-00-00", 75, 256),
        ("rmp", "cab-01-02", "cab-01-01", 75, 256),
        ("rmp", "cab-00-01", "cab-00-02", 75, 256),
    )
    plan = FaultPlan(
        seed=seed,
        specs=(
            FaultSpec(
                kind=STALL,
                where="cab-01-00",
                stall_ns=us(400),
                probability=1.0,
                window_ns=(ms(2), ms(12)),
            ),
        ),
    )
    return Case(
        name="slow-cab",
        summary="cab-01-00 stalls on every egress frame, no errors anywhere",
        fleet=line_fleet(2, 3, hub_ports=8),
        flows=flows,
        plan=plan,
        horizon_ns=ms(24),
        cadence_ns=us(500),
        truth=GroundTruth(
            sites=("cab-01-00",),
            onset_ns=ms(2),
            blast_radius=("rmp-00", "rmp-01"),
        ),
        # probability=1.0 makes every decision occurrence-independent, so
        # the sharded run must reproduce the reference protocol digest.
        shard_check=True,
    )


# --------------------------------------------------------------- catalogue

_BUILDERS = (
    lossy_link,
    bursty_corruption,
    cab_blackout,
    overloaded_fifo,
    multicast_storm,
    flapping_cab,
    lossy_fiber,
    fifo_cascade,
    zombie_tcp,
    rmp_fanout_loss,
    slow_cab,
)


def catalogue(seed: int) -> Dict[str, Case]:
    """Every case built for ``seed``, by name (names are CLI-visible)."""
    cases: Dict[str, Case] = {}
    for builder in _BUILDERS:
        case = builder(seed)
        if case.name in cases:
            raise ConfigurationError(f"two catalogue cases are named {case.name!r}")
        cases[case.name] = case
    return cases


def chaos_cases(seed: int) -> Dict[str, Case]:
    """The cases without ground truth, by name: ``bench chaos`` judges
    their delivery and determinism."""
    return {name: case for name, case in catalogue(seed).items() if case.truth is None}


def incidents(seed: int) -> Dict[str, Case]:
    """The cases with ground truth, by name: the ops lab scores them."""
    return {
        name: case for name, case in catalogue(seed).items() if case.truth is not None
    }


def build(name: str, seed: int) -> Case:
    """Build the named case for ``seed`` (raises on an unknown name)."""
    cases = catalogue(seed)
    if name not in cases:
        raise ConfigurationError(
            f"unknown fault case {name!r}; choose from {sorted(cases)}"
        )
    return cases[name]
