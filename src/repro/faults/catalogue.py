"""The fault catalogue: every seeded fault case, and the one runner.

A :class:`Case` is everything needed to reproduce one fault run on
demand: a fleet topology, explicit flows (so the traffic matrix is part
of the case's definition rather than a seed accident), a seeded
:class:`~repro.faults.plan.FaultPlan` and a horizon.  :func:`run_case`
builds the fleet, attaches the plan, installs the flows as a
:class:`~repro.cluster.workload.Workload` and runs to the horizon; every
consumer runs a case through it.

``bench chaos`` (:mod:`repro.faults.campaign`) is the one verdict over
the catalogue: every flow delivered exactly once, in order, bit-exact,
and two runs identical.  The five cases share one rig — four CABs
``cab-a`` .. ``cab-d`` on one HUB — and one load of four flows from
``cab-a``: an RMP stream to ``cab-b``, an NMP multicast to {``cab-b``,
``cab-c``, ``cab-d``}, echoed RPCs to ``cab-b`` and a TCP byte stream to
``cab-b``.  The plans are tuned so each recovery path fires
(retransmits, CRC drops, NACK suppression) while staying inside the
bounded-retry limits: a case is supposed to *pass*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cluster.fleet import FleetSpec, build_fleet_system
from repro.cluster.workload import Flow, Workload, WorkloadSpec
from repro.errors import ConfigurationError, ProtocolError
from repro.faults.injector import Injector
from repro.faults.plan import (
    CORRUPT,
    CRASH,
    DROP,
    MBOX_LOSE,
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
    "behavior_signature",
    "build",
    "catalogue",
    "run_case",
]


@dataclass(frozen=True)
class Case:
    """One reproducible fault run, fully specified."""

    name: str
    summary: str
    fleet: FleetSpec
    flows: tuple
    plan: FaultPlan
    horizon_ns: int

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


def run_case(case: Case) -> CaseRun:
    """Build the case's fleet, attach its plan, install its flows, and run
    to its horizon."""
    system = build_fleet_system(case.fleet)
    injector = system.attach_fault_plan(case.plan)
    workload = Workload(case.workload, case.fleet)
    workload.install(system)
    error = None
    try:
        system.run(until=case.horizon_ns)
    except (ProtocolError, SimulationError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    return CaseRun(system, workload, injector, error)


def behavior_signature(run: CaseRun) -> Tuple:
    """Everything the simulation *did*: equal between two runs iff they
    behaved identically.  (``sim.now`` is the horizon, or the instant a
    run raised; ``sim.last_event_ns`` is when the last event fired.)
    """
    workload = run.workload
    flows = tuple(
        (name, tuple(sorted(record.items())), workload.digests[name])
        for name, record in sorted(workload.flow_results.items())
    )
    sim = run.system.sim
    return (
        sim.now,
        sim.last_event_ns,
        sim.events_scheduled,
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


# --------------------------------------------------------------- catalogue

_BUILDERS = (
    lossy_link,
    bursty_corruption,
    cab_blackout,
    overloaded_fifo,
    multicast_storm,
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


def build(name: str, seed: int) -> Case:
    """Build the named case for ``seed`` (raises on an unknown name)."""
    cases = catalogue(seed)
    if name not in cases:
        raise ConfigurationError(
            f"unknown fault case {name!r}; choose from {sorted(cases)}"
        )
    return cases[name]
