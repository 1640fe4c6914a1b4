"""System builder: assemble a whole Nectar network in a few lines.

:class:`NectarSystem` owns the simulator, cost model, fabric, and node
registry; :meth:`NectarSystem.add_node` builds one CAB with its complete
protocol stack (datalink, IP, ICMP, UDP, TCP, and the three Nectar-specific
transports).  Hosts are attached to nodes by :mod:`repro.host.machine`.

Typical use::

    system = NectarSystem()
    hub = system.add_hub("hub0")
    a = system.add_node("cab-a", hub, 0)
    b = system.add_node("cab-b", hub, 1)
    # ... fork threads on a.runtime / b.runtime, then:
    system.run()
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.buf.accounting import CopyMeter
from repro.cab.board import CAB
from repro.errors import ConfigurationError
from repro.hub.crossbar import Hub
from repro.hub.network import NectarNetwork
from repro.model.costs import CostModel, DEFAULT_COSTS
from repro.protocols.addressing import NodeRegistry
from repro.protocols.datalink import Datalink
from repro.protocols.icmp import ICMPProtocol
from repro.protocols.ip import IPProtocol
from repro.protocols.nectar.collective import CollectiveEngine
from repro.protocols.nectar.datagram import DatagramProtocol
from repro.protocols.nectar.nmp import NMPProtocol
from repro.protocols.nectar.reqresp import RequestResponseProtocol
from repro.protocols.nectar.rmp import RMPProtocol
from repro.protocols.nectar.transport import NectarTransportLayer
from repro.protocols.tcp.tcp import TCPProtocol
from repro.protocols.udp import UDPProtocol
from repro.runtime.kernel import Runtime
from repro.sim.core import Simulator
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["NectarNode", "NectarSystem"]


class NectarNode:
    """One CAB with its full protocol stack."""

    def __init__(
        self,
        system: "NectarSystem",
        name: str,
        hub: Hub,
        port: int,
        tcp_checksums: bool = True,
        mtu: int = 9000,
        ip_input_mode: str = "interrupt",
    ):
        self.system = system
        self.name = name
        self.cab = CAB(system.sim, system.costs, name)
        system.metrics.mount(f"{name}.hw", self.cab.stats)
        system.metrics.mount(f"{name}.cpu", self.cab.cpu.stats)
        # Host-copy accounting: every region access and packet buffer on
        # this node counts into the system-wide meter (host.memcpy_bytes).
        self.cab.copy_meter = system.copy_meter
        self.cab.data_mem.copy_meter = system.copy_meter
        self.cab.program_mem.copy_meter = system.copy_meter
        system.network.attach(self.cab, hub, port)
        self.node_id = system.registry.register(name)
        self.runtime = Runtime(self.cab)
        # Mounted before any protocol exists: mailboxes mount themselves
        # below the runtime's scope as they are created.
        system.metrics.mount(name, self.runtime.stats)
        self.datalink = Datalink(self.runtime, system.network, system.registry, mtu=mtu)
        self.ip = IPProtocol(
            self.runtime, self.datalink, system.registry, input_mode=ip_input_mode
        )
        self.icmp = ICMPProtocol(self.runtime, self.ip)
        self.udp = UDPProtocol(self.runtime, self.ip)
        self.udp.icmp = self.icmp
        self.tcp = TCPProtocol(
            self.runtime, self.ip, checksums=tcp_checksums, mss=mtu - 40
        )
        self.nectar = NectarTransportLayer(self.runtime, self.datalink)
        self.datagram = DatagramProtocol(self.nectar)
        self.rmp = RMPProtocol(self.nectar)
        self.rpc = RequestResponseProtocol(self.nectar)
        self.nmp = NMPProtocol(self.nectar)
        self.coll = CollectiveEngine(self.nectar)

    @property
    def ip_address(self) -> int:
        return self.ip.address

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NectarNode {self.name} id={self.node_id}>"


class NectarSystem:
    """A whole simulated Nectar installation."""

    def __init__(self, costs: Optional[CostModel] = None):
        self.sim = Simulator()
        self.costs = costs if costs is not None else DEFAULT_COSTS.copy()
        self.tracer = self.sim.tracer
        #: The one metrics store (repro.telemetry.metrics): every
        #: component's ``.stats`` is mounted here, telemetry on or off.
        self.metrics = MetricsRegistry()
        #: Host-level copy meter (repro.buf): counts the Python-side byte
        #: copies this simulation performs, distinct from simulated memcpy
        #: cost.  Mounted as the ``host.*`` counters.
        self.copy_meter = self.metrics.mount("host", CopyMeter())
        self.network = NectarNetwork(self.sim, self.costs)
        self.metrics.mount("net", self.network.stats)
        self.registry = NodeRegistry(self.network)
        self.nodes: Dict[str, NectarNode] = {}
        self.hubs: Dict[str, Hub] = {}
        #: Optional repro.faults.injector.Injector, set by attach_fault_plan.
        self.faults = None
        #: Optional repro.telemetry.session.Telemetry, set by enable_telemetry.
        self.telemetry = None

    def add_hub(self, name: str, ports: int = 16) -> Hub:
        """Create a HUB crossbar on the fabric."""
        hub = self.network.new_hub(name, ports=ports)
        self.metrics.mount(name, hub.stats)
        self.hubs[name] = hub
        return hub

    def connect_hubs(self, hub_a: Hub, port_a: int, hub_b: Hub, port_b: int) -> None:
        """Wire two HUBs together (multi-hop routes)."""
        self.network.link_hubs(hub_a, port_a, hub_b, port_b)

    def add_node(
        self,
        name: str,
        hub: Hub,
        port: int,
        tcp_checksums: bool = True,
        mtu: int = 9000,
        ip_input_mode: str = "interrupt",
    ) -> NectarNode:
        """Create a CAB with a full protocol stack on a HUB port."""
        if name in self.nodes:
            raise ConfigurationError(f"node {name!r} already exists")
        # Refuse the name and the port before the node mounts counters or
        # starts processes.
        self.network.topology.check_placeable(name, hub, port)
        node = NectarNode(
            self,
            name,
            hub,
            port,
            tcp_checksums=tcp_checksums,
            mtu=mtu,
            ip_input_mode=ip_input_mode,
        )
        self.nodes[name] = node
        if self.faults is not None:
            node.runtime.faults = self.faults
        return node

    def add_remote_node(self, name: str, hub: Hub, port: int) -> int:
        """Register a CAB that is simulated by another shard (a *ghost*).

        The ghost gets its node id and IP (keeping id assignment identical
        across every shard of a partitioned fleet) and its topology
        placement (so source routes to it resolve), but no CAB hardware, no
        protocol stack, and no link process — frames bound for it leave
        this shard through the network's boundary seam.  Returns the node
        id.  Call in the same global construction order on every shard.
        """
        if name in self.nodes:
            raise ConfigurationError(f"node {name!r} already exists locally")
        # Refuse the name and the port before the registry hands out an id.
        self.network.topology.check_placeable(name, hub, port)
        node_id = self.registry.register(name)
        self.network.topology.place_cab(name, hub, port)
        return node_id

    def attach_fault_plan(self, plan):
        """Install a :class:`~repro.faults.plan.FaultPlan` on this system.

        Creates an :class:`~repro.faults.injector.Injector`, wires it into
        the fabric, every node's runtime, and the matching FIFOs, and
        returns it.  Nodes added later are wired by :meth:`add_node`.
        """
        from repro.faults.injector import Injector

        injector = Injector(plan)
        injector.install(self)
        self.faults = injector
        return injector

    def enable_telemetry(self):
        """Attach a :class:`~repro.telemetry.session.Telemetry` session.

        Installs a trace recorder as the tracer's sink and a cycle profiler
        as its profiler, so every node (added before or after) is observed,
        and returns the session.  Idempotent: a second call returns the
        existing session.
        """
        from repro.telemetry.session import Telemetry

        if self.telemetry is None:
            self.telemetry = Telemetry(self)
        return self.telemetry

    # -- running ------------------------------------------------------------------

    def run(self, until: Optional[int] = None) -> int:
        """Run the simulation until idle or ``until`` ns."""
        return self.sim.run(until=until)

    def run_until(self, event, limit: Optional[int] = None):
        """Run until ``event`` fires; returns its value."""
        return self.sim.run_until(event, limit=limit)

    @property
    def now(self) -> int:
        return self.sim.now

    def utilization(self) -> Dict[str, float]:
        """Per-CAB CPU busy fraction over the elapsed simulated time."""
        if self.sim.now == 0:
            return {name: 0.0 for name in self.nodes}
        return {
            name: node.cab.cpu.busy_ns / self.sim.now
            for name, node in self.nodes.items()
        }
