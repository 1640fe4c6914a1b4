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
* :mod:`repro.faults.scenarios` — canned campaigns (``lossy-link``,
  ``bursty-corruption``, ``flapping-cab``, ``overloaded-fifo``).
* :mod:`repro.faults.campaign` — the chaos harness behind
  ``python -m repro bench chaos``: runs all three reliable transports under a
  plan and checks exactly-once in-order bit-exact delivery plus
  run-to-run determinism.

Everything is driven by explicit seeds; a fixed (scenario, seed) pair
reproduces the same faults at the same simulated nanoseconds every run.
"""

from repro.faults.injector import Injector
from repro.faults.plan import (
    CORRUPT,
    CRASH,
    DROP,
    FAULT_KINDS,
    MBOX_LOSE,
    RX_DROP,
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
    "RX_DROP",
    "SQUEEZE",
    "STALL",
]
