"""The HUB controller command set.

The controller implements commands that the CABs use to set up both
packet-switching and circuit-switching connections over the network,
including multi-hop connections (paper Sec. 2.1).  Packet-switched
connections are set up implicitly per frame by the link hardware; this
module provides the explicit *circuit* commands: a circuit pins the crossbar
output ports along a route so that subsequent frames incur no per-packet
connection setup (at the price of excluding other traffic from those ports).

Commands are issued from CAB thread context, so the generator methods here
yield CPU operations and must be driven with ``yield from`` inside a thread.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.cab.cpu import CPU, wait_sim_event
from repro.errors import HubError
from repro.hub.network import NectarNetwork, NetworkNode, PathPlan
from repro.units import us

__all__ = ["Circuit", "HubController"]

#: CPU cost for a CAB to compose and issue one controller command. [era]
COMMAND_NS = us(2)


class Circuit:
    """An open circuit-switched connection along a fixed route."""

    def __init__(self, owner: str, route: tuple[int, ...], plan: PathPlan):
        self.owner = owner
        self.route = route
        self.plan = plan
        self.open = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else "closed"
        return f"<Circuit {self.owner} route={self.route} {state}>"


class HubController:
    """Thread-context API for HUB commands, per CAB."""

    def __init__(self, network: NectarNetwork, node: NetworkNode, cpu: CPU):
        self.network = network
        self.node = node
        self.cpu = cpu

    def open_circuit(self, route: tuple[int, ...]) -> Generator:
        """Open a circuit along ``route``.  Returns the :class:`Circuit`.

        Blocks (the calling thread) until every output port along the route
        has been granted; each traversed HUB charges one command plus its
        connection-setup latency.
        """
        if not route:
            raise HubError("cannot open a circuit with an empty route")
        plan = self.network.plan_path(self.node, route)
        yield COMMAND_NS * len(plan.hops)
        for hub, port in plan.hops:
            grant = hub.acquire_output(port)
            yield from wait_sim_event(self.cpu, grant)
            hub.pin_circuit(port)
        yield 0  # command round-trip boundary
        yield from self._settle(plan.setup_ns)
        circuit = Circuit(self.node.name, route, plan)
        self.network.stats.add("circuits_opened")
        return circuit

    def close_circuit(self, circuit: Circuit) -> Generator:
        """Release a circuit's crossbar ports."""
        if not circuit.open:
            raise HubError(f"circuit {circuit!r} already closed")
        yield COMMAND_NS * len(circuit.plan.hops)
        for hub, port in reversed(circuit.plan.hops):
            hub.unpin_circuit(port)
            hub.release_output(port)
        circuit.open = False
        self.network.stats.add("circuits_closed")

    def _settle(self, setup_ns: int) -> Generator:
        """Connection-establishment latency, charged to the issuing thread."""
        if setup_ns > 0:
            yield setup_ns
