"""The Nectar network: CABs wired to HUBs, link processes, fault injection.

:class:`NectarNetwork` owns the topology and runs one *link transmit process*
per attached CAB.  The process drains the CAB's output FIFO, sets up the
crossbar connection described by the frame's source route (700 ns per HUB),
streams the frame's chunks at fiber line rate into the destination CAB's
input FIFO — blocking on FIFO space, which is the HUB's low-level flow
control — and releases the connection at the end of the packet.

Frames whose route stays on one HUB are cut-through switched exactly as
above.  Frames that cross an *inter-HUB* fiber are handled store-and-forward
per HUB segment: the frame is serialized onto the inter-hub fiber at line
rate, and after the fiber propagation delay it is handed to the neighbour
HUB's forwarding engine, which repeats the process until the final HUB
streams the frame into the destination CAB's input FIFO.  The hand-off is
the *shard boundary seam* of the cluster layer (:mod:`repro.cluster`): the
250 ns fiber propagation delay is a hard lower bound on cross-HUB causality,
so a partitioned fleet can run each HUB's shard in its own process and
exchange hand-offs at window barriers without changing any observable
result.  Hand-off arrivals are scheduled with :meth:`Simulator.call_at`
under a shard-independent key ``(src hub, out port, per-port seq)`` so the
interleave at equal nanoseconds is identical whether the neighbour HUB runs
in this process or in another one.

The fault seam (:attr:`NectarNetwork.fault_hooks`, a
:class:`repro.faults.injector.Injector` installed by
``NectarSystem.attach_fault_plan``) can corrupt frame bytes on the wire
(detected by the receiving CAB's hardware CRC check), drop frames outright
or stall a link, which is what makes the transport protocols'
retransmission machinery genuinely necessary.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Deque, Dict, Generator, Optional, Protocol, Set, Union

from repro.buf.packet import BufView
from repro.errors import ConfigurationError, RouteError
from repro.hub.crossbar import Hub
from repro.hub.groups import GroupTable, is_fanout_tree
from repro.hub.routing import Topology
from repro.hw.fiber import CHUNK_BYTES, FiberIn, FiberOut, Frame
from repro.model.costs import CostModel
from repro.sim.core import Simulator
from repro.telemetry.metrics import CounterScope

__all__ = [
    "Handoff",
    "NectarNetwork",
    "NetworkNode",
]


class NetworkNode(Protocol):
    """What the network needs from an attached node (a CAB)."""

    name: str
    fiber_in: FiberIn
    fiber_out: FiberOut


@dataclass(frozen=True)
class Handoff:
    """One frame crossing an inter-HUB fiber, as plain picklable state.

    This is the unit of cross-shard exchange: everything the receiving HUB's
    forwarding engine needs to continue the frame's journey, with no live
    object references.  ``key`` is the shard-independent tie-break under
    which the arrival fires (see :meth:`Simulator.call_at`); ``fire_ns`` is
    always at least ``fiber_propagation_ns`` after the hand-off was emitted,
    which is the lookahead the cluster conductor's windows rely on.
    """

    fire_ns: int
    key: tuple
    dst_hub: str
    #: Output ports still to take, one per remaining HUB.
    remaining: tuple
    #: In-process (inline shards), a retained :class:`~repro.buf.BufView`
    #: of the exporting frame's storage — still zero-copy.  Serialized to
    #: ``bytes`` by :meth:`to_wire` only at a true process boundary.
    payload: Union[bytes, BufView]
    src: str
    crc: int
    seqno: int
    created_ns: int

    def to_wire(self) -> "Handoff":
        """Materialize the payload for pickling (one counted host copy).

        The single legitimate serialization point of the hand-off path:
        called by the worker-process loop just before the pipe send.
        Releases the view's reference — the wire copy owns the bytes now.
        """
        payload = self.payload
        if not isinstance(payload, BufView):
            return self
        data = payload.tobytes()
        payload.release()
        return replace(self, payload=data)


class _HubForwarder:
    """Store-and-forward engine of one HUB for inter-hub arrivals.

    Frames arriving on an inter-hub fiber queue per *output* port and are
    forwarded one at a time under the same output-port arbitration local
    senders use, so a forwarded frame and a locally-originated frame contend
    fairly for the port.  A frame bound for a CAB port streams into the
    CAB's input FIFO at line rate (blocking on FIFO space); a frame bound
    for another HUB serializes onto that fiber and hands off again.
    """

    def __init__(self, network: "NectarNetwork", hub: Hub):
        self.network = network
        self.hub = hub
        self._queues: Dict[int, Deque[tuple[tuple, Frame]]] = {}
        self._active: Set[int] = set()

    def accept(self, remaining: tuple, frame: Frame) -> None:
        """Event context: queue an arrived frame for its next output port."""
        if not remaining:
            raise RouteError(
                f"{self.hub.name}: frame #{frame.seqno} arrived with an "
                f"exhausted route"
            )
        if is_fanout_tree(remaining):
            self.accept_tree(remaining, frame)
            return
        self._enqueue(remaining[0], remaining, frame)

    def accept_tree(self, tree: tuple, frame: Frame) -> None:
        """Event context: replicate a multicast frame across its branches.

        This is the crossbar fan-out: one arrived frame becomes one replica
        per branch, each sharing the arrival's payload storage through a
        retained :class:`~repro.buf.packet.BufView` — no byte copies.  The
        arrival's own reference is dropped once every branch holds its own.
        """
        network = self.network
        for port, subtree in tree:
            replica = network._clone_frame(frame, (port, subtree))
            hooks = network.fault_hooks
            if hooks is not None:
                network._fault_fanout_branch(self.hub, port, subtree, replica)
                if replica.drop:
                    network.stats.add("frames_dropped")
                    replica.release()
                    continue
            network.stats.add("mcast_replicas")
            self._enqueue(port, (port, subtree), replica)
        frame.release()

    def _enqueue(self, port: int, remaining: tuple, frame: Frame) -> None:
        self._queues.setdefault(port, deque()).append((remaining, frame))
        if port not in self._active:
            self._active.add(port)
            self.network.sim.process(
                self._drain(port), name=f"fwd:{self.hub.name}.{port}"
            )

    def _drain(self, port: int) -> Generator:
        queue = self._queues[port]
        try:
            while queue:
                remaining, frame = queue.popleft()
                yield from self._forward_one(port, remaining, frame)
        finally:
            self._active.discard(port)

    def _forward_one(self, port: int, remaining: tuple, frame: Frame) -> Generator:
        network = self.network
        costs = network.costs
        carried = network.topology.wired_to(self.hub, port)
        # A multicast branch entry is (port, subtree); its onward route is
        # the subtree (a fan-out tree for the next HUB, or () at a CAB).
        is_branch = len(remaining) == 2 and isinstance(remaining[1], tuple)
        onward = remaining[1] if is_branch else remaining[1:]
        terminal = not remaining[1] if is_branch else len(remaining) == 1
        wait = self.hub.acquire_output(port)
        if wait is not None:
            yield wait
        token = None
        if network._crosses_cut(carried):
            # Holding the cut port: the hand-off leaves exactly one hop and
            # one serialization from now, and every frame queued behind
            # this one leaves later, so the bound covers them too.
            token = network._intent_register(
                network.sim.now + costs.hub_hop_ns + costs.fiber_tx_ns(frame.size)
            )
        try:
            if not isinstance(carried, Hub):
                if not terminal:
                    raise RouteError(
                        f"{self.hub.name}: route {remaining} reaches a CAB "
                        f"with hops left"
                    )
                yield costs.hub_hop_ns + costs.fiber_propagation_ns
                yield from self._stream_to_cab(network.nodes[carried], frame)
                network.stats.add("frames_delivered")
                network.stats.add("bytes_delivered", frame.size)
            else:
                if terminal:
                    raise RouteError(
                        f"{self.hub.name}: route ends on the inter-hub link "
                        f"at port {port}"
                    )
                yield costs.hub_hop_ns
                yield costs.fiber_tx_ns(frame.size)
                network.stats.add("frames_forwarded")
                if is_branch:
                    network.stats.add("mcast_crossings")
                network._handoff(self.hub, port, carried.name, onward, frame)
        finally:
            self.hub.release_output(port)
            network._intent_clear(token)

    def _stream_to_cab(self, dest: NetworkNode, frame: Frame) -> Generator:
        dest_fifo = dest.fiber_in.fifo
        fiber_ns_per_byte = self.network.costs.fiber_ns_per_byte
        for chunk in frame.chunks():
            wait = dest_fifo.wait_space(chunk.length)
            if wait is not None:
                yield wait
            yield int(round(chunk.length * fiber_ns_per_byte))
            dest_fifo.push(chunk)


class NectarNetwork:
    """The fabric connecting CABs through one or more HUBs."""

    def __init__(self, sim: Simulator, costs: CostModel):
        self.sim = sim
        self.costs = costs
        self.topology = Topology()
        #: Multicast group addresses and their per-sender fan-out trees.
        self.groups = GroupTable(self.topology)
        self.nodes: Dict[str, NetworkNode] = {}
        self.stats = CounterScope()
        #: The per-frame fault seam, e.g. a
        #: :class:`repro.faults.injector.Injector`: ``on_link_frame(src,
        #: dest, frame)`` may corrupt bytes or set drop at egress,
        #: ``link_delay_ns(src)`` stalls the link, ``on_fanout_branch`` sees
        #: each multicast replica.  Installed by NectarSystem.
        self.fault_hooks = None
        #: The simulation's tracer, for per-link transfer spans.
        self.tracer = sim.tracer
        self._route_cache: Dict[tuple[str, str], tuple[int, ...]] = {}
        #: Hubs whose forwarding runs in this process.  None means all of
        #: them (the single-process reference); a cluster shard runner
        #: narrows it to the shard's own hubs and installs
        #: :attr:`boundary_egress` for hand-offs that leave the shard.
        self.local_hubs: Optional[Set[str]] = None
        #: Called with a :class:`Handoff` for frames crossing a shard cut.
        self.boundary_egress: Optional[Callable[[Handoff], None]] = None
        self._forwarders: Dict[str, _HubForwarder] = {}
        #: Per (hub, out port) hand-off counter: the shard-independent
        #: tie-break for arrivals scheduled at the same nanosecond.
        self._handoff_seq: Dict[tuple[str, int], int] = {}
        #: Cut-bound frames the event floor does not cover: token -> lower
        #: bound (ns) on when that frame's hand-off is emitted.  A frame
        #: registers once it *holds* the cut port, with its exact emission
        #: time, and clears at emission; a frame queued for the port needs
        #: none (it leaves after the holder).  An arrival whose next hop
        #: crosses the cut is covered from scheduling to arrival, and a
        #: multicast whose source HUB fans out across the cut from the
        #: link pop to the fan-out.  Read by :meth:`next_emission_bound`,
        #: the signal behind the cluster conductor's adaptive lookahead.
        self._intents: Dict[int, int] = {}
        self._intent_next = 0

    # -- emission bounds (the cluster conductor's adaptive lookahead) -----------

    def _intent_register(self, bound_ns: int) -> int:
        self._intent_next += 1
        self._intents[self._intent_next] = bound_ns
        return self._intent_next

    def _intent_clear(self, token: Optional[int]) -> None:
        if token is not None:
            self._intents.pop(token, None)

    def _crosses_cut(self, carried: Union[str, Hub]) -> bool:
        """Whether a HUB port carrying ``carried`` leads out of this shard."""
        return (
            self.local_hubs is not None
            and isinstance(carried, Hub)
            and carried.name not in self.local_hubs
        )

    def _tx_floor_ns(self, size: int) -> int:
        """Line-rate time of a ``size``-byte frame on a CAB link.

        The same per-chunk ``int(round(len * rate))`` sum that
        :meth:`_consume_frame` and :meth:`_stream_frame` charge, chunk by
        :data:`~repro.hw.fiber.CHUNK_BYTES` chunk.  Waits for the TX DMA's
        next chunk only add to it, so it is a floor on the time a frame
        holding its port takes to leave.
        """
        rate = self.costs.fiber_ns_per_byte
        full, tail = divmod(size, CHUNK_BYTES)
        return full * int(round(CHUNK_BYTES * rate)) + int(round(tail * rate))

    def min_emission_delta_ns(self) -> int:
        """Minimum ns between a fresh event and an uncovered hand-off.

        A frame that holds a cut port, waits for one, or is scheduled to
        arrive at a HUB whose next hop crosses the cut is covered by an
        intent (see :attr:`_intents`).  Any other emission starts with a
        link pop: the TX DMA's push wakes the link, which takes the free
        port and pays HUB setup, fiber propagation and at least one byte
        (1,030 ns at the paper's constants).  A frame that first crosses
        a HUB-to-HUB fiber inside the shard pays propagation, a hop and
        its own serialization after that hand-off; a datalink frame is at
        least its 16-byte header, which is longer.  So a shard whose
        earliest pending event is at ``t`` cannot emit an uncovered
        hand-off before ``t + min_emission_delta_ns()``.
        """
        costs = self.costs
        return costs.hub_setup_ns + costs.fiber_propagation_ns + self._tx_floor_ns(1)

    def next_emission_bound(self) -> Optional[int]:
        """Conservative lower bound on this shard's next boundary emission.

        ``None`` means provably no emission before the next injection: the
        shard has no pending events and no cut-bound frame in flight.  An
        intent's bound is clamped up to the earliest pending event time —
        emissions only happen inside events — which keeps stale bounds
        (a transmission blocked on flow control past its floor) safe
        without making them sticky.
        """
        t_next = self.sim.peek_next_time()
        bounds = []
        if self._intents:
            floor = t_next if t_next is not None else self.sim.now
            bounds.append(max(min(self._intents.values()), floor))
        if t_next is not None:
            bounds.append(t_next + self.min_emission_delta_ns())
        return min(bounds) if bounds else None

    # -- construction -----------------------------------------------------------

    def new_hub(self, name: str, ports: int = 16) -> Hub:
        """Create a HUB and register it with the topology."""
        hub = Hub(self.sim, name, ports=ports)
        self.topology.add_hub(hub)
        return hub

    def attach(self, node: NetworkNode, hub: Hub, port: int) -> None:
        """Plug a CAB's fiber pair into a HUB port and start its link process."""
        if node.name in self.nodes:
            raise ConfigurationError(f"node {node.name!r} already attached")
        self.topology.place_cab(node.name, hub, port)
        self.nodes[node.name] = node
        self._route_cache.clear()
        self.sim.process(self._link_tx_loop(node), name=f"link:{node.name}")

    def link_hubs(self, hub_a: Hub, port_a: int, hub_b: Hub, port_b: int) -> None:
        """Wire two HUBs together with a fiber pair."""
        self.topology.link_hubs(hub_a, port_a, hub_b, port_b)
        self._route_cache.clear()

    # -- routing -----------------------------------------------------------------

    def route_for(self, src: str, dst: str) -> tuple[int, ...]:
        """Source route between two attached CABs (cached)."""
        key = (src, dst)
        if key not in self._route_cache:
            self._route_cache[key] = self.topology.compute_route(src, dst)
        return self._route_cache[key]

    # -- the link process ---------------------------------------------------------

    def _link_tx_loop(self, node: NetworkNode) -> Generator:
        """Drain one CAB's output FIFO onto the fabric, frame by frame.

        Each frame is dispatched once, on its first hop: a fan-out tree, a
        loopback, a CAB port of this HUB (cut-through) or a neighbour HUB.
        """
        fifo = node.fiber_out.fifo
        hub, _port = self.topology.hub_of(node.name)
        costs = self.costs
        while True:
            wait = fifo.wait_data()
            if wait is not None:
                yield wait
            chunk = fifo.pop()
            frame: Frame = chunk.frame
            if not chunk.is_first:
                raise RouteError(
                    f"link {node.name}: FIFO out of frame sync (got offset "
                    f"{chunk.offset} of frame #{frame.seqno})"
                )
            if self.fault_hooks is not None:
                dest = self._frame_dest(node, frame)
                self.fault_hooks.on_link_frame(node.name, dest, frame)
                stall_ns = self.fault_hooks.link_delay_ns(node.name)
                if stall_ns:
                    self.stats.add("frames_stalled")
                    yield stall_ns

            tracer = self.tracer
            track = f"link:{node.name}" if tracer.sink is not None else None
            if track is not None:
                tracer.begin(
                    "hub",
                    "transfer",
                    {"bytes": frame.size, "src": node.name},
                    track=track,
                )

            if frame.drop:
                yield from self._consume_frame(fifo, chunk)
                self.stats.add("frames_dropped")
                # The injector ate the frame: its journey ends here.
                frame.release()
                if track is not None:
                    tracer.end("hub", "transfer", track=track)
                continue

            route = frame.route
            if is_fanout_tree(route):
                yield from self._tx_multicast(hub, fifo, chunk, frame)
            elif not route:
                # Loopback: back into our own input FIFO, no crossbar port.
                yield costs.fiber_propagation_ns
                yield from self._stream_frame(fifo, chunk, node.fiber_in.fifo)
                self.stats.add("frames_delivered")
                self.stats.add("bytes_delivered", frame.size)
            else:
                out_port = route[0]
                carried = self.topology.wired_to(hub, out_port)
                if isinstance(carried, Hub):
                    yield from self._tx_to_neighbor_hub(
                        hub, out_port, carried, fifo, chunk, frame
                    )
                else:
                    if len(route) != 1:
                        raise RouteError(
                            f"route {route} from {node.name!r} reaches CAB "
                            f"{carried!r} with hops left"
                        )
                    dest_fifo = self.nodes[carried].fiber_in.fifo
                    wait = hub.acquire_output(out_port)
                    if wait is not None:
                        yield wait
                    yield costs.hub_setup_ns + costs.fiber_propagation_ns * 2
                    try:
                        yield from self._stream_frame(fifo, chunk, dest_fifo)
                    finally:
                        hub.release_output(out_port)
                    self.stats.add("frames_delivered")
                    self.stats.add("bytes_delivered", frame.size)
            if track is not None:
                tracer.end("hub", "transfer", track=track)

    def _frame_dest(self, node: NetworkNode, frame: Frame) -> str:
        """The destination CAB name of a frame (for fault-hook matching).

        Resolved through the wiring table, so it also names ghost CABs on
        remote shards — a fault plan must see cut-crossing frames exactly
        like local ones.
        """
        if is_fanout_tree(frame.route):
            # A multicast frame has many destinations; directed per-member
            # faults match at the fan-out branches instead (see
            # Injector.on_fanout_branch).
            return "mcast"
        return self.topology.cab_on_route(node.name, frame.route)

    # -- the inter-hub seam -------------------------------------------------------

    def _tx_to_neighbor_hub(
        self, hub: Hub, out_port: int, neighbour: Hub, fifo, first_chunk, frame: Frame
    ) -> Generator:
        """Serialize a cross-hub frame onto its first inter-hub fiber."""
        costs = self.costs
        wait = hub.acquire_output(out_port)
        if wait is not None:
            yield wait
        token = None
        if self._crosses_cut(neighbour):
            # Holding the cut port: declare the exact emission time (only
            # a wait for the TX DMA's next chunk could delay it).  A frame
            # queued for the port leaves after this one and needs no bound.
            token = self._intent_register(
                self.sim.now
                + costs.hub_setup_ns
                + costs.fiber_propagation_ns
                + self._tx_floor_ns(frame.size)
            )
        try:
            yield costs.hub_setup_ns + costs.fiber_propagation_ns
            yield from self._consume_frame(fifo, first_chunk)
        finally:
            hub.release_output(out_port)
            self._intent_clear(token)
        self.stats.add("frames_forwarded")
        self._handoff(hub, out_port, neighbour.name, frame.route[1:], frame)

    def _tx_multicast(self, hub: Hub, fifo, first_chunk, frame: Frame) -> Generator:
        """Store-and-forward a group frame into its HUB and fan it out.

        The sender emits *one* frame; the source HUB (and every HUB a
        branch reaches) replicates it along the fan-out tree, so the
        per-member cost moves from the sending CAB's link to the crossbars
        where the members' paths actually diverge.
        """
        token = None
        if self._next_hop_crosses_cut(hub, frame.route):
            # At least one branch is cut-bound: cover the whole fan-out
            # with one conservative intent until its replicas queue for
            # their ports (a replica that takes its port registers then).
            token = self._intent_register(
                self.sim.now
                + self.costs.hub_setup_ns
                + self.costs.fiber_propagation_ns
                + self._tx_floor_ns(frame.size)
            )
        try:
            yield self.costs.hub_setup_ns + self.costs.fiber_propagation_ns
            yield from self._consume_frame(fifo, first_chunk)
            self.stats.add("mcast_frames")
            self._forwarder_for(hub.name).accept_tree(frame.route, frame)
        finally:
            self._intent_clear(token)

    def _clone_frame(self, frame: Frame, remaining: tuple) -> Frame:
        """A replica sharing the original's payload storage (one retain)."""
        replica = Frame(
            route=remaining, payload=frame.payload.retain(), src=frame.src
        )
        replica.crc = frame.crc
        replica.seqno = frame.seqno
        replica.created_ns = frame.created_ns
        return replica

    def _fault_fanout_branch(
        self, hub: Hub, port: int, subtree: tuple, replica: Frame
    ) -> None:
        """Give the fault injector one shot at a single fan-out branch.

        The branch's destination label is the CAB on the port for a leaf
        branch or the neighbour HUB's name for an interior one, so directed
        ``"sender->member"`` specs can sever one member's replica while the
        rest of the group delivers — the NACK/repair storm scenario.
        """
        carried = self.topology.wired_to(hub, port)
        dest = carried.name if isinstance(carried, Hub) else carried
        self.fault_hooks.on_fanout_branch(replica.src, dest, replica)

    def _handoff(
        self,
        src_hub: Hub,
        out_port: int,
        dst_hub_name: str,
        remaining: tuple,
        frame: Frame,
    ) -> None:
        """Commit a frame to the fiber towards the next HUB.

        Arrival fires ``fiber_propagation_ns`` later under a key derived
        from the *sending* port — identical whether the receiving HUB is
        simulated in this process or in another shard.
        """
        site = (src_hub.name, out_port)
        seq = self._handoff_seq.get(site, 0) + 1
        self._handoff_seq[site] = seq
        fire_ns = self.sim.now + self.costs.fiber_propagation_ns
        key = (src_hub.name, out_port, seq)
        if self.local_hubs is not None and dst_hub_name not in self.local_hubs:
            if self.boundary_egress is None:
                raise RouteError(
                    f"frame #{frame.seqno} crosses the shard cut at "
                    f"{src_hub.name} port {out_port} but no boundary egress "
                    f"is installed"
                )
            self.stats.add("handoffs_exported")
            # Zero-copy export: the hand-off retains the payload storage,
            # then the local frame drops its reference.  Inline shards
            # adopt the view as-is; worker processes serialize via to_wire.
            self.boundary_egress(
                Handoff(
                    fire_ns=fire_ns,
                    key=key,
                    dst_hub=dst_hub_name,
                    remaining=tuple(remaining),
                    payload=frame.payload.retain(),
                    src=frame.src,
                    crc=frame.crc,
                    seqno=frame.seqno,
                    created_ns=frame.created_ns,
                )
            )
            frame.release()
            return
        self._schedule_arrival(dst_hub_name, tuple(remaining), frame, fire_ns, key)

    def _schedule_arrival(
        self,
        dst_hub_name: str,
        remaining: tuple,
        frame: Frame,
        fire_ns: int,
        key: tuple,
    ) -> None:
        forwarder = self._forwarder_for(dst_hub_name)
        if not self._next_hop_crosses_cut(forwarder.hub, remaining):
            self.sim.call_at(
                fire_ns, lambda: forwarder.accept(remaining, frame), key=key
            )
            return
        # The arriving HUB forwards straight across the cut: cover the
        # frame until it arrives.  In the arrival's nanosecond it takes
        # the port (and registers) or queues behind the holder.
        token = self._intent_register(
            fire_ns + self.costs.hub_hop_ns + self.costs.fiber_tx_ns(frame.size)
        )

        def arrive() -> None:
            self._intent_clear(token)
            forwarder.accept(remaining, frame)

        self.sim.call_at(fire_ns, arrive, key=key)

    def _next_hop_crosses_cut(self, hub: Hub, remaining: tuple) -> bool:
        """Whether a frame at ``hub`` with route ``remaining`` (a port list
        or a fan-out tree) leaves it across the shard cut."""
        if self.local_hubs is None or not remaining:
            return False
        if is_fanout_tree(remaining):
            return any(
                self._crosses_cut(self.topology.wired_to(hub, port))
                for port, _subtree in remaining
            )
        return self._crosses_cut(self.topology.wired_to(hub, remaining[0]))

    def _forwarder_for(self, hub_name: str) -> _HubForwarder:
        forwarder = self._forwarders.get(hub_name)
        if forwarder is None:
            hub = self.topology.hubs.get(hub_name)
            if hub is None:
                raise RouteError(f"hand-off to unknown hub {hub_name!r}")
            forwarder = _HubForwarder(self, hub)
            self._forwarders[hub_name] = forwarder
        return forwarder

    def inject_handoff(self, handoff: Handoff) -> None:
        """Deliver a :class:`Handoff` exported by another shard.

        Reconstructs the frame from its hand-off state and schedules the
        arrival under the hand-off's original time and key, so the firing
        order matches the single-process reference bit for bit.  Inline
        shards pass the retained view straight through (zero-copy); wire
        payloads (``bytes`` off a pipe) are adopted by the frame with one
        boundary copy.
        """
        frame = Frame(
            route=tuple(handoff.remaining),
            payload=handoff.payload,
            src=handoff.src,
        )
        frame.crc = handoff.crc
        frame.seqno = handoff.seqno
        frame.created_ns = handoff.created_ns
        self.stats.add("handoffs_imported")
        self._schedule_arrival(
            handoff.dst_hub,
            tuple(handoff.remaining),
            frame,
            handoff.fire_ns,
            tuple(handoff.key),
        )

    def _stream_frame(self, fifo, first_chunk, dest_fifo) -> Generator:
        """Push a frame's chunks into the destination FIFO at line rate."""
        fiber_ns_per_byte = self.costs.fiber_ns_per_byte
        chunk = first_chunk
        while True:
            wait = dest_fifo.wait_space(chunk.length)
            if wait is not None:
                yield wait
            yield int(round(chunk.length * fiber_ns_per_byte))
            dest_fifo.push(chunk)
            if chunk.is_last:
                return
            wait = fifo.wait_data()
            if wait is not None:
                yield wait
            chunk = fifo.pop()

    def _consume_frame(self, fifo, first_chunk) -> Generator:
        """Eat a dropped frame's chunks at line rate (the wire is still busy)."""
        fiber_ns_per_byte = self.costs.fiber_ns_per_byte
        chunk = first_chunk
        while True:
            yield int(round(chunk.length * fiber_ns_per_byte))
            if chunk.is_last:
                return
            wait = fifo.wait_data()
            if wait is not None:
                yield wait
            chunk = fifo.pop()
