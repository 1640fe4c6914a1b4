"""Deterministic, seed-driven fault injection for the Nectar simulation.

The paper's central claim is that the CAB runtime hosts *multiple*
transports whose recovery machinery — RMP retransmit-on-timeout, CRC drops
at the datalink, TCP loss recovery — coexists on one NIC.  This package
forces those paths to actually execute:

* :mod:`repro.faults.plan` — the declarative model: a :class:`FaultPlan`
  is a master seed plus a list of :class:`FaultSpec` records (what kind of
  fault, where, in which simulated-time window, how often).
* :mod:`repro.faults.injector` — the :class:`Injector` that evaluates a
  plan at the instrumented hook points (fiber/link egress, datalink
  receive, FIFO back-pressure, mailbox queueing, whole-CAB crash windows).
* :mod:`repro.faults.catalogue` — the one catalogue of fault cases (a
  fleet, explicit flows, a seeded plan, a horizon): ``lossy-link``,
  ``bursty-corruption``, ``cab-blackout``, ``overloaded-fifo`` and
  ``multicast-storm``; and :func:`~repro.faults.catalogue.run_case`, the
  one runner every consumer uses.
* :mod:`repro.faults.campaign` — the one verdict, behind
  ``python -m repro bench chaos``: every flow of a case delivered exactly
  once, in order, bit-exact, and two runs identical.

Everything is driven by explicit seeds; a fixed (case, seed) pair
reproduces the same faults at the same simulated nanoseconds every run.
"""

from repro.faults.injector import Injector
from repro.faults.plan import (
    CORRUPT,
    CRASH,
    DROP,
    FAULT_KINDS,
    MBOX_LOSE,
    SQUEEZE,
    STALL,
    FaultPlan,
    FaultSpec,
)

__all__ = [
    "CORRUPT",
    "CRASH",
    "DROP",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "Injector",
    "MBOX_LOSE",
    "SQUEEZE",
    "STALL",
]
