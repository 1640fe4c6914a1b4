"""The HUB: a crossbar switch with I/O ports and per-output arbitration.

A HUB consists of a crossbar switch, a set of I/O ports, and a controller
(paper Sec. 2.1).  The crossbar itself is non-blocking: contention exists
only at output ports, which we model as single-slot resources.  The current
Nectar HUBs are 16x16; the hardware latency to set up a connection and push
the first byte through a single HUB is 700 ns (``CostModel.hub_setup_ns``).
What each port is wired to is recorded once, in
:class:`~repro.hub.routing.Topology`; a Hub keeps only its crossbar.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import HubError
from repro.sim.core import Event, Simulator
from repro.sim.primitives import Resource
from repro.telemetry.metrics import CounterScope

__all__ = ["Hub"]

DEFAULT_PORTS = 16


class Hub:
    """One crossbar switch."""

    def __init__(self, sim: Simulator, name: str, ports: int = DEFAULT_PORTS):
        if ports <= 1:
            raise HubError(f"hub needs at least 2 ports, got {ports}")
        self.sim = sim
        self.name = name
        self.ports = ports
        # Output-port arbitration: one frame at a time.
        self._out_arbiters = [
            Resource(sim, slots=1, name=f"{name}.out{p}") for p in range(ports)
        ]
        self.stats = CounterScope()
        self._grant_counters = [f"out{p}_grants" for p in range(ports)]

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.ports:
            raise HubError(f"{self.name}: port {port} out of range 0..{self.ports - 1}")

    def acquire_output(self, port: int) -> Optional[Event]:
        """Take exclusive use of an output port (packet switching).

        ``None`` when the port was free and is now held: the caller goes on
        in place.  Otherwise an event to yield that fires when the port is
        handed over.
        """
        self._check_port(port)
        self.stats.add(self._grant_counters[port])
        arbiter = self._out_arbiters[port]
        if arbiter.try_acquire():
            return None
        return arbiter.acquire()

    def release_output(self, port: int) -> None:
        """Release an output port held by a packet."""
        self._check_port(port)
        self._out_arbiters[port].release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Hub {self.name} {self.ports}x{self.ports}>"
