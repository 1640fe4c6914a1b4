"""Deterministic mixed fleet traffic: RMP + RPC + TCP + multicast flows.

A :class:`WorkloadSpec` expands to a flow list as a pure function of
``(seed, fleet spec)`` — every process that holds the same spec derives the
same flows, endpoints, ports, and payloads.  :class:`Workload.install` then
wires up only the halves whose CAB is *local* to the given system: in the
single-process reference that is every half, in a shard it is just the
shard's own senders/receivers, and the two views add up to exactly the same
traffic on the wire.

Protocol-level results (the parity currency of docs/scaling.md) are
recorded at each flow's observing endpoint — the RMP receiver, the RPC
client, the TCP server — as delivered bytes, message counts, and the
simulated completion time.  Beside them each endpoint keeps a SHA-256 of
the bytes it was delivered, in delivery order: what the chaos verdict
compares with the flow's own payloads.  Retransmission counters are
per-node sums, reported for whichever nodes are local.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.apps import traffic
from repro.cluster.fleet import FleetSpec
from repro.errors import ConfigurationError
from repro.hub.groups import GROUP_BASE

__all__ = ["Flow", "Workload", "WorkloadSpec", "recovery_counters"]

# Disjoint port ranges, indexed by global flow number, so one CAB can
# terminate many flows without a collision.
_RMP_SRC_PORT = 0x4000
_RMP_DST_PORT = 0x4800
_RPC_CLIENT_PORT = 0x3000
_RPC_SERVICE_PORT = 0x2000
_TCP_CLIENT_PORT = 6000
_TCP_SERVER_PORT = 7000
_NMP_PORT = 0x5000
_COLL_PORT = 0x5800

#: Payload bytes count up modulo a prime, so no two pieces of a stream
#: cut at a power-of-two size (a TCP segment, a message) read the same.
_RAMP = bytes(range(251))


@dataclass(frozen=True)
class Flow:
    """One traffic flow between two CABs, fully determined by the spec."""

    index: int  # global flow number (port basis and group id basis)
    kind: str  # "rmp" | "rpc" | "tcp" | "mcast" | "barrier"
    src: str  # sending / client CAB name
    dst: str  # receiving / server CAB name
    messages: int  # RMP/NMP messages, RPC calls, barrier rounds, TCP payloads
    size: int  # bytes per message / call / whole TCP payload
    #: One-to-many flows only: the receiving group, in rank order.  For
    #: "mcast" the src multicasts to these members (src is never a member);
    #: for "barrier" the members *are* the flow (src/dst mirror the root
    #: and last member for display).
    members: tuple = ()

    @property
    def group_id(self) -> int:
        """The fabric-level group address of a one-to-many flow."""
        return GROUP_BASE + self.index

    @property
    def name(self) -> str:
        return f"{self.kind}-{self.index:02d}"

    def payload(self, message_index: int) -> bytes:
        """The deterministic body of one message of this flow: bytes that
        count up from a per-message start, so a byte delivered twice, out
        of order or in the wrong place changes the stream."""
        start = (self.index * 31 + message_index * 7 + 1) % len(_RAMP)
        cycles = (start + self.size) // len(_RAMP) + 1
        return (_RAMP * cycles)[start : start + self.size]

    def payloads(self):
        """Every message body in order (a TCP flow is its one payload)."""
        return map(self.payload, range(1 if self.kind == "tcp" else self.messages))


@dataclass(frozen=True)
class WorkloadSpec:
    """How much of each kind of traffic to generate, and from which seed."""

    seed: int = 0
    rmp_flows: int = 8
    rpc_flows: int = 6
    tcp_flows: int = 4
    rmp_messages: int = 4
    rmp_bytes: int = 256
    rpc_calls: int = 3
    rpc_bytes: int = 128
    tcp_bytes: int = 4096
    #: One-to-many traffic (defaults off: seeded expansions predating the
    #: multicast plane are byte-identical).
    mcast_flows: int = 0
    mcast_messages: int = 4
    mcast_bytes: int = 256
    mcast_group: int = 4
    barrier_flows: int = 0
    barrier_rounds: int = 3
    #: Explicit :class:`Flow` tuple overriding the seeded expansion.  The
    #: fault catalogue and the ``mcast`` bench use this to pin traffic to
    #: known endpoints (the count/size fields above are ignored when set).
    #: Flow indices must be distinct — they are the port basis.
    explicit_flows: tuple = ()

    def flows(self, fleet: FleetSpec) -> tuple:
        """Expand to concrete flows — a pure function of (self, fleet)."""
        if self.explicit_flows:
            known = set(fleet.cab_names())
            for flow in self.explicit_flows:
                if flow.src not in known or flow.dst not in known:
                    raise ConfigurationError(
                        f"explicit flow {flow.name} references a CAB outside "
                        f"the fleet ({flow.src} -> {flow.dst})"
                    )
            if len({flow.index for flow in self.explicit_flows}) != len(
                self.explicit_flows
            ):
                raise ConfigurationError("explicit flow indices must be distinct")
            return tuple(self.explicit_flows)
        cabs = fleet.cab_names()
        if len(cabs) < 2:
            raise ConfigurationError(
                f"workload needs at least 2 CABs, fleet has {len(cabs)}"
            )
        rng = random.Random(self.seed)
        flows = []
        plan = (
            [("rmp", self.rmp_messages, self.rmp_bytes)] * self.rmp_flows
            + [("rpc", self.rpc_calls, self.rpc_bytes)] * self.rpc_flows
            + [("tcp", 1, self.tcp_bytes)] * self.tcp_flows
            + [("mcast", self.mcast_messages, self.mcast_bytes)]
            * self.mcast_flows
            + [("barrier", self.barrier_rounds, 0)] * self.barrier_flows
        )
        group = max(2, min(self.mcast_group, len(cabs) - 1))
        for index, (kind, messages, size) in enumerate(plan):
            if kind == "mcast":
                src = rng.choice(cabs)
                members = tuple(
                    rng.sample([name for name in cabs if name != src], group)
                )
                flows.append(
                    Flow(
                        index=index,
                        kind=kind,
                        src=src,
                        dst=members[-1],
                        messages=messages,
                        size=size,
                        members=members,
                    )
                )
                continue
            if kind == "barrier":
                members = tuple(rng.sample(cabs, min(len(cabs), group + 1)))
                flows.append(
                    Flow(
                        index=index,
                        kind=kind,
                        src=members[0],
                        dst=members[-1],
                        messages=messages,
                        size=size,
                        members=members,
                    )
                )
                continue
            src = rng.choice(cabs)
            dst = rng.choice(cabs)
            while dst == src:
                dst = rng.choice(cabs)
            flows.append(
                Flow(
                    index=index,
                    kind=kind,
                    src=src,
                    dst=dst,
                    messages=messages,
                    size=size,
                )
            )
        return tuple(flows)


def recovery_counters(stats) -> dict:
    """One node's retransmissions, retries, NACKs and repairs, by name."""
    return {
        "rmp_retransmits": stats.value("rmp_retransmits"),
        "rpc_retries": stats.value("rpc_retries"),
        "tcp_retransmits": stats.value("tcp_retransmits"),
        "nmp_nacks": stats.value("nmp_nacks_out"),
        "nmp_repairs": stats.value("nmp_repairs_out"),
    }


class Workload:
    """The installed half (or whole) of a spec's flows on one system.

    After the simulation quiesces, :attr:`flow_results` holds one record per
    flow whose *observing* endpoint was local, and :meth:`results` packages
    them with per-node retransmit counters.
    """

    def __init__(self, spec: WorkloadSpec, fleet: FleetSpec):
        self.spec = spec
        self.fleet = fleet
        self.flows = spec.flows(fleet)
        #: flow name -> {kind, src, dst, bytes, messages, completed_ns}
        self.flow_results: Dict[str, dict] = {}
        #: flow name -> SHA-256 hex of the delivered bytes, in order
        #: (kept apart so the protocol digest of a sharded run is unchanged)
        self.digests: Dict[str, str] = {}

    # -- installation ---------------------------------------------------------

    def install(self, system) -> None:
        """Wire up every flow half whose CAB has a stack on ``system``."""
        for flow in self.flows:
            if flow.kind == "mcast":
                # Group membership is fabric state: every shard registers
                # it (in the same global order) so the crossbars of *any*
                # hub a fan-out tree crosses resolve the group address.
                system.network.groups.register(flow.group_id, flow.members)
            src = system.nodes.get(flow.src)
            dst = system.nodes.get(flow.dst)
            if (
                src is None
                and dst is None
                and not any(name in system.nodes for name in flow.members)
            ):
                continue
            installer = getattr(self, f"_install_{flow.kind}")
            installer(system, flow, src, dst)

    def _completion(self, system, flow: Flow, member: Optional[str] = None):
        """``(take, record)`` for one observing endpoint: ``take`` adds up
        the bytes of each delivery and hashes them in place, ``record`` is
        the final step that writes the completion record and digest at the
        simulated time it runs.  A group member's record is keyed
        flow@member, so the shards' result sets stay disjoint and union to
        the reference's."""
        key = f"{flow.name}@{member}" if member else flow.name
        sizes = []
        digest = hashlib.sha256()

        def take(delivery) -> None:
            sizes.append(delivery.size)
            digest.update(delivery.view())

        def record() -> None:
            self.flow_results[key] = {
                "kind": flow.kind,
                "src": flow.src,
                "dst": member or flow.dst,
                "bytes": sum(sizes),
                # A TCP flow is one payload however many segments carry it.
                "messages": 1 if flow.kind == "tcp" else flow.messages,
                "completed_ns": system.sim.now,
            }
            self.digests[key] = digest.hexdigest()

        return take, record

    def _install_rmp(self, system, flow: Flow, src, dst) -> None:
        node_id = system.registry.node_id
        src_port, dst_port = _RMP_SRC_PORT + flow.index, _RMP_DST_PORT + flow.index
        if src is not None:
            sender = traffic.RMP(src, None, src_port, (node_id(flow.dst), dst_port))
            traffic.fork(src, f"{flow.name}-send", sender.stream(flow.payloads()))
        if dst is not None:
            receiver = traffic.RMP(
                dst, f"{flow.name}-inbox", dst_port, (node_id(flow.src), src_port)
            )
            take, record = self._completion(system, flow)
            traffic.fork(
                dst, f"{flow.name}-recv", receiver.drain(flow.messages, take=take), record
            )

    def _install_mcast(self, system, flow: Flow, src, dst) -> None:
        port = _NMP_PORT + flow.index
        if src is not None:
            ids = tuple(system.registry.node_id(name) for name in flow.members)
            sender = traffic.NMP(src, None, flow.group_id, port, members=ids)
            traffic.fork(src, f"{flow.name}-send", sender.stream(flow.payloads()))
        for rank, member in enumerate(flow.members):
            node = system.nodes.get(member)
            if node is None:
                continue
            receiver = traffic.NMP(
                node, f"{flow.name}-inbox-{member}", flow.group_id, port, rank=rank
            )
            take, record = self._completion(system, flow, member)
            traffic.fork(
                node,
                f"{flow.name}-recv-{member}",
                receiver.drain(flow.messages, take=take),
                record,
            )

    def _install_barrier(self, system, flow: Flow, src, dst) -> None:
        port = _COLL_PORT + flow.index
        ids = tuple(system.registry.node_id(name) for name in flow.members)
        for rank, member in enumerate(flow.members):
            node = system.nodes.get(member)
            if node is None:
                continue
            group = node.coll.create(flow.group_id, port, ids, rank)
            _take, record = self._completion(system, flow, member)
            rounds = (node.coll.barrier(group) for _ in range(flow.messages))
            traffic.fork(node, f"{flow.name}-bar-{member}", *rounds, record)

    def _install_rpc(self, system, flow: Flow, src, dst) -> None:
        port = _RPC_SERVICE_PORT + flow.index
        if dst is not None:
            server = traffic.RequestResponse(dst, f"{flow.name}-service", port)
            traffic.fork(dst, f"{flow.name}-serve", server.echo(), service=True)
        if src is not None:
            peer = (system.registry.node_id(flow.dst), port)
            client = traffic.RequestResponse(
                src, None, _RPC_CLIENT_PORT + flow.index, peer
            )
            take, record = self._completion(system, flow)
            traffic.fork(
                src,
                f"{flow.name}-client",
                client.pingpong(flow.payloads(), take=take),
                record,
            )

    def _install_tcp(self, system, flow: Flow, src, dst) -> None:
        # The connection is left ESTABLISHED on purpose: with nothing
        # unacked the timer thread parks on its condition and the queue
        # drains, while an active close would tick through TIME_WAIT.
        port = _TCP_SERVER_PORT + flow.index
        if dst is not None:
            server = traffic.TCP(dst, f"{flow.name}-srv", port)
            take, record = self._completion(system, flow)
            traffic.fork(
                dst,
                f"{flow.name}-collect",
                server.drain(nbytes=flow.size, take=take),
                record,
            )
        if src is not None:
            # The registry knows a CAB's address even where it is a ghost.
            peer = (system.registry.ip_of_name(flow.dst), port)
            client = traffic.TCP(
                src, f"{flow.name}-cli", _TCP_CLIENT_PORT + flow.index, peer
            )
            traffic.fork(src, f"{flow.name}-client", client.stream(flow.payloads()))

    # -- results --------------------------------------------------------------

    def results(self, system) -> dict:
        """Protocol-level results observed on this system.

        ``flows`` covers flows whose observing endpoint is local and
        finished; ``retransmits`` covers the local nodes.  Shards' results
        are disjoint and union to the single-process reference's.
        """
        retransmits = {
            name: recovery_counters(system.nodes[name].runtime.stats)
            for name in sorted(system.nodes)
        }
        return {
            "flows": dict(sorted(self.flow_results.items())),
            "retransmits": retransmits,
        }

    def incomplete(self, system) -> tuple:
        """Names of locally-observed flow records that never completed."""
        return tuple(
            name
            for flow in self.flows
            for name, observer in self.records(flow)
            if observer in system.nodes and name not in self.flow_results
        )

    @staticmethod
    def records(flow: Flow) -> tuple:
        """``(record name, observing CAB)`` of each record ``flow`` writes:
        one per group member, else one at the RPC client or the receiver."""
        if flow.members:
            return tuple((f"{flow.name}@{member}", member) for member in flow.members)
        return ((flow.name, flow.src if flow.kind == "rpc" else flow.dst),)
