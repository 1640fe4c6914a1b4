"""Deterministic discrete-event simulation kernel.

This package is the substrate for the whole Nectar reproduction: hardware
models, the CAB runtime, protocols, and host processes all execute as
generator-based coroutines scheduled by a single :class:`Simulator` with
integer-nanosecond simulated time.
"""

from repro.sim.core import (
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.primitives import Resource, Store
from repro.sim.trace import TraceRecorder, Tracer

__all__ = [
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "TraceRecorder",
    "Tracer",
]
