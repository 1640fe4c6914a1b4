"""The wiring table of the fabric and source-route computation.

The CABs use *source routing* (paper Sec. 2.1): a route is the sequence of
HUB output-port numbers a frame must take, one per HUB traversed.  The HUB
command set supports multi-hop connections, so large Nectar systems are built
by wiring HUB ports to other HUBs.

Each HUB I/O port carries one CAB's fiber pair or one fiber pair to another
HUB.  :class:`Topology` is the one record of that wiring: it books every
port, runs every wiring check, answers what a port carries, and computes
shortest routes with a plain breadth-first search over HUBs.  A
:class:`~repro.hub.crossbar.Hub` keeps only its crossbar.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Union

from repro.errors import RouteError, WiringError
from repro.hub.crossbar import Hub

__all__ = ["Topology"]


class Topology:
    """The wiring table: which CAB or HUB sits on which HUB port."""

    def __init__(self):
        self.hubs: Dict[str, Hub] = {}
        #: (hub name, port) -> what the port carries: a CAB name (a live
        #: CAB, or a ghost placed for another shard) or the neighbour Hub
        #: at the far end of an inter-hub link.
        self._wiring: Dict[tuple[str, int], Union[str, Hub]] = {}
        #: cab name -> (hub, port) where the CAB's fibers terminate
        self._placement: Dict[str, tuple[Hub, int]] = {}

    # -- construction -----------------------------------------------------------

    def add_hub(self, hub: Hub) -> None:
        """Register a HUB in the wiring graph."""
        if hub.name in self.hubs:
            raise RouteError(f"duplicate hub name {hub.name!r}")
        self.hubs[hub.name] = hub

    def check_free(self, hub: Hub, port: int, action: str) -> tuple[str, int]:
        """Refuse a port that does not exist or is already booked, changing
        nothing; returns the port's table key."""
        self._check_port(hub, port, f"cannot {action}: ")
        key = (hub.name, port)
        held = self._wiring.get(key)
        if isinstance(held, Hub):
            raise WiringError(
                f"cannot {action}: {hub.name} port {port} carries an inter-hub "
                f"link to {held.name}"
            )
        if held is not None:
            raise WiringError(
                f"cannot {action}: {hub.name} port {port} is already occupied "
                f"by CAB {held!r}"
            )
        return key

    def check_placeable(self, cab_name: str, hub: Hub, port: int) -> tuple[str, int]:
        """Refuse a CAB name already placed (a live CAB or a ghost) or a
        port :meth:`check_free` refuses, changing nothing; returns the
        port's table key.  A caller that builds before it places
        (``NectarSystem.add_node``) asks first."""
        if cab_name in self._placement:
            raise RouteError(f"CAB {cab_name!r} already placed")
        return self.check_free(hub, port, f"place CAB {cab_name!r}")

    def _book(self, hub: Hub, port: int, action: str) -> tuple[str, int]:
        """Check that a port exists and is free, registering its HUB if new;
        returns the port's table key."""
        key = self.check_free(hub, port, action)
        if hub.name not in self.hubs:
            self.add_hub(hub)
        return key

    @staticmethod
    def _check_port(hub: Hub, port: int, context: str = "") -> None:
        if not 0 <= port < hub.ports:
            raise WiringError(
                f"{context}{hub.name} port {port} out of range 0..{hub.ports - 1}"
            )

    def place_cab(self, cab_name: str, hub: Hub, port: int) -> None:
        """Record which HUB port a CAB's fibers terminate on."""
        key = self.check_placeable(cab_name, hub, port)
        if hub.name not in self.hubs:
            self.add_hub(hub)
        self._wiring[key] = cab_name
        self._placement[cab_name] = (hub, port)

    def link_hubs(self, hub_a: Hub, port_a: int, hub_b: Hub, port_b: int) -> None:
        """Record an inter-HUB fiber pair between two ports."""
        action = f"link {hub_a.name} port {port_a} to {hub_b.name} port {port_b}"
        key_a = self._book(hub_a, port_a, action)
        key_b = self._book(hub_b, port_b, action)
        self._wiring[key_a] = hub_b
        self._wiring[key_b] = hub_a

    # -- queries ---------------------------------------------------------------

    def hub_of(self, cab_name: str) -> tuple[Hub, int]:
        """The (hub, port) where a CAB is attached."""
        if cab_name not in self._placement:
            raise RouteError(f"unknown CAB {cab_name!r}")
        return self._placement[cab_name]

    def wired_to(self, hub: Hub, port: int) -> Union[str, Hub]:
        """What a HUB port carries: a CAB name or the neighbour Hub."""
        carried = self._wiring.get((hub.name, port))
        if carried is None:
            self._check_port(hub, port)
            raise WiringError(f"{hub.name} port {port} is not wired")
        return carried

    def compute_route(self, src_cab: str, dst_cab: str) -> tuple[int, ...]:
        """Shortest source route from one CAB to another.

        Returns the tuple of output-port numbers, one per HUB traversed.
        An empty tuple means loopback (src == dst).
        """
        if src_cab == dst_cab:
            return ()
        src_hub, _src_port = self.hub_of(src_cab)
        dst_hub, dst_port = self.hub_of(dst_cab)

        # BFS over hubs; edges are inter-hub links, in wiring order.
        links = [
            (key, carried)
            for key, carried in self._wiring.items()
            if isinstance(carried, Hub)
        ]
        frontier: deque[Hub] = deque([src_hub])
        parents: Dict[str, Optional[tuple[Hub, int]]] = {src_hub.name: None}
        while frontier:
            hub = frontier.popleft()
            if hub.name == dst_hub.name:
                break
            for (hub_name, out_port), neighbour in links:
                if hub_name != hub.name or neighbour.name in parents:
                    continue
                parents[neighbour.name] = (hub, out_port)
                frontier.append(neighbour)
        if dst_hub.name not in parents:
            raise RouteError(f"no path from {src_cab!r} to {dst_cab!r}")

        # Walk back from destination hub, collecting output ports.
        ports: list[int] = [dst_port]
        cursor = dst_hub.name
        while parents[cursor] is not None:
            hub, out_port = parents[cursor]  # type: ignore[misc]
            ports.append(out_port)
            cursor = hub.name
        ports.reverse()
        return tuple(ports)

    def cab_on_route(self, src_cab: str, route: tuple[int, ...]) -> str:
        """The destination CAB name a route terminates at.

        Resolves through the wiring table alone, so it names *ghost* CABs of
        a partitioned fleet too.  Raises :class:`RouteError` on a route that
        ends on an inter-hub link or reaches a CAB with hops left, and
        :class:`WiringError` on a port that is not wired.
        """
        if not route:
            return src_cab  # loopback
        hub, _ = self.hub_of(src_cab)
        *through, last = route
        for index, port in enumerate(through):
            carried = self.wired_to(hub, port)
            if not isinstance(carried, Hub):
                raise RouteError(
                    f"route {route} from {src_cab!r} reaches CAB {carried!r} at "
                    f"hop {index} with hops left"
                )
            hub = carried
        carried = self.wired_to(hub, last)
        if isinstance(carried, Hub):
            raise RouteError(
                f"route {route} from {src_cab!r} ends on the inter-hub link "
                f"to {carried.name}"
            )
        return carried
