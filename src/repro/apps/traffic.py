"""The one traffic plane: a transport is an endpoint, a workload is a loop.

Every plane that drives a transport — the paper's tables and figures, the
``observe`` workloads, the ``load`` kind, the chaos campaign, the fleet mix
— does one of four things over it, each written here once:
:meth:`~Endpoint.pingpong` (a timed round trip per payload),
:meth:`~Endpoint.echo` (bounce every delivery back),
:meth:`~Endpoint.stream` (send payloads back to back) and
:meth:`~Endpoint.drain` (take deliveries up to a count or a byte total).

An :class:`Endpoint` is one side of one flow — :class:`Datagram`,
:class:`RMP`, :class:`RequestResponse`, :class:`UDP`, :class:`TCP`, the
one-to-many :class:`NMP`.  Each side is opened on its own (a fleet shard
holds only one half of a cross-shard flow) and is told every mailbox name,
port and peer address.  Its flavour is read off what it is opened on: a
:class:`~repro.system.NectarNode` gives CAB threads that call the protocol
directly, a :class:`~repro.host.machine.HostedNode` host processes that
reach the same protocol through mailboxes in mapped CAB memory, every byte
crossing the VME bus (the protocol-engine usage of paper Sec. 5.2).

What a receiver does with a delivery is its ``take``, a function of the
held message run before the storage is released: :func:`size` counts it
untouched, :func:`copy` materializes it, a caller's own can compare in
place through ``view()``, and None releases it unread.  :func:`fork` runs
loops as one thread or process; :func:`serve` is the request-response
server loop of every RPC service in the tree; :func:`measure_rtt` and
:func:`measure_throughput` are the paper's two measurements over a
:func:`pair`.
"""

from __future__ import annotations

import struct
from itertools import repeat
from types import GeneratorType
from typing import Callable, Generator, Iterable, Optional, Tuple

from repro.errors import ConfigurationError, ProtocolError
from repro.model.stats import LatencyRecorder
from repro.protocols.headers import (
    NECTAR_KIND_DATA,
    NECTAR_PROTO_DATAGRAM,
    NectarTransportHeader,
)
from repro.runtime.mailbox import Mailbox
from repro.system import NectarNode, NectarSystem
from repro.units import seconds, throughput_mbps

__all__ = [
    "Datagram",
    "Endpoint",
    "NMP",
    "RMP",
    "RequestResponse",
    "TCP",
    "UDP",
    "copy",
    "fork",
    "host_send_service",
    "measure_rtt",
    "measure_throughput",
    "pair",
    "rpc_service",
    "serve",
    "size",
]

Hook = Optional[Callable]
Peer = Tuple[int, int]  # (node id or IP address, port)

_UDP_SEND_FMT = ">HIH"  # src_port, dst_ip, dst_port


def _flavour(where) -> tuple:
    """``(node, hosted)``; ``hosted`` is None where CAB threads do the work."""
    if isinstance(where, NectarNode):
        return where, None
    return where.node, where


class _Held:
    """Bytes already in hand — a host's VME read, an RPC reply — behind the
    ``size``, ``read()`` and ``view()`` of a held message, so one ``take``
    serves both."""

    __slots__ = ("data", "size")

    def __init__(self, data: bytes):
        self.data = data
        self.size = len(data)

    def read(self) -> bytes:
        return self.data

    def view(self) -> memoryview:
        return memoryview(self.data)


def size(delivery) -> int:
    """A ``take`` that counts the delivery without touching its data."""
    return delivery.size


def copy(delivery) -> bytes:
    """A ``take`` that materializes the delivery's bytes."""
    return delivery.read()


# ------------------------------------------------------- threads and processes


def _sequence(steps, on_error) -> Generator:
    try:
        for step in steps:
            if callable(step):
                step()
            else:
                yield from step
    except ProtocolError as exc:
        if on_error is None:
            raise
        on_error(exc)


def fork(where, name: str, *steps, service: bool = False, on_error=None):
    """Run ``steps`` in order as one CAB thread or one host process.

    A step is a generator (usually a loop of this module) or a plain
    callable, called once the steps before it have finished: the place to
    fire a ``done`` event or stamp a completion time.  On a ``NectarNode``
    the thread has application priority, or system priority for a
    ``service`` (echo and serve loops); on a ``HostedNode`` it is a UNIX
    process whose first act is mapping CAB memory.  A :class:`ProtocolError`
    ends the thread, and goes to ``on_error`` when there is one.
    """
    node, hosted = _flavour(where)
    if hosted is None:
        start = node.runtime.fork_system if service else node.runtime.fork_application
        return start(_sequence(steps, on_error), name)
    steps = (hosted.driver.map_cab_memory(), *steps)
    return hosted.host.fork_process(_sequence(steps, on_error), name)


def host_send_service(
    node: NectarNode, name: str, transmit: Callable, head_bytes: int = 0
) -> Mailbox:
    """A CAB system thread that transmits whatever a host queues in the new
    mailbox ``name``, which is returned.

    Each message is its first ``head_bytes`` (addressing the host put in
    front) and a payload; ``transmit(head, payload)`` is the generator that
    sends it from the CAB.
    """
    mailbox = node.runtime.mailbox(name)

    def service() -> Generator:
        while True:
            msg = yield from mailbox.begin_get()
            head = msg.read(0, head_bytes) if head_bytes else b""
            payload = msg.read(head_bytes)
            yield from mailbox.end_get(msg)
            yield from transmit(head, payload)

    node.runtime.fork_system(service(), name=f"{name}-thread")
    return mailbox


# -------------------------------------------------------------------- endpoints


class Endpoint:
    """One side of one flow: how to send a payload and take a delivery.

    ``inbox`` names the mailbox deliveries arrive in, created here; None
    for a side that only sends.
    """

    #: True where no host flavour exists (host TCP is repro.host.sockets).
    cab_only = False

    def __init__(self, where, inbox: Optional[str]):
        self.where = where
        self.node, self.hosted = _flavour(where)
        if self.cab_only and self.hosted is not None:
            raise ConfigurationError(
                f"a {type(self).__name__} endpoint is opened on a NectarNode"
            )
        self.sim = self.node.system.sim
        self.inbox = None if inbox is None else self.node.runtime.mailbox(inbox)

    def send(self, payload: bytes) -> Generator:
        """Send one payload to the peer (a generator to ``yield from``)."""
        raise NotImplementedError

    def flush(self) -> Generator:
        """Wait out whatever :meth:`send` left in flight (nothing, here)."""
        return
        yield

    def _put(self, mailbox: Mailbox, data: bytes) -> Generator:
        """Host side: build ``data`` in ``mailbox`` over the VME mapping."""
        driver = self.hosted.driver
        msg = yield from driver.begin_put(mailbox, len(data))
        yield from driver.fill(msg, data)
        yield from driver.end_put(mailbox, msg)

    def receive(self, take: Hook = None) -> Generator:
        """Wait for the next delivery; returns ``take(delivery)``.

        On the CAB ``take`` sees the held message.  A host polls for it (as
        the paper's measurements did) and always reads it across the VME
        bus; ``take`` sees those bytes.
        """
        if self.hosted is None:
            msg = yield from self.inbox.begin_get()
            taken = None if take is None else take(msg)
            yield from self.inbox.end_get(msg)
            return taken
        driver = self.hosted.driver
        msg = yield from driver.begin_get(self.inbox, blocking=False)
        data = yield from driver.read(msg)
        yield from driver.end_get(self.inbox, msg)
        return None if take is None else take(_Held(data))

    def exchange(self, payload: bytes, take: Hook = None) -> Generator:
        """One round trip: send ``payload``, return ``take(reply)``."""
        yield from self.send(payload)
        return (yield from self.receive(take))

    # -- the four loops ------------------------------------------------------

    def pingpong(
        self, payloads: Iterable[bytes], on_round: Hook = None, take: Hook = None
    ) -> Generator:
        """One round trip per payload, then ``on_round(index, rtt_ns, taken)``
        with the clock read once the reply's storage is released."""
        for index, payload in enumerate(payloads):
            start = self.sim.now
            taken = yield from self.exchange(payload, take)
            if on_round is not None:
                on_round(index, self.sim.now - start, taken)

    def echo(self, count: Optional[int] = None) -> Generator:
        """Bounce deliveries back to the peer: ``count`` of them, or for as
        long as the simulation runs."""
        for _ in repeat(None) if count is None else repeat(None, count):
            data = yield from self.receive(copy)
            yield from self.send(data)

    def stream(self, payloads: Iterable[bytes]) -> Generator:
        """Send every payload back to back, then :meth:`flush`."""
        for payload in payloads:
            yield from self.send(payload)
        yield from self.flush()

    def drain(
        self,
        messages: Optional[int] = None,
        nbytes: Optional[int] = None,
        take: Hook = None,
        on_delivery: Hook = None,
    ) -> Generator:
        """Take ``messages`` deliveries, or deliveries until ``nbytes`` have
        arrived (a byte stream has no message boundaries to count).

        ``on_delivery(taken)`` runs once each delivery's storage is released
        — where a throughput measurement reads the clock.
        """
        if (messages is None) == (nbytes is None):
            raise ValueError("drain takes exactly one of messages= and nbytes=")

        def sized(delivery):
            return delivery.size, None if take is None else take(delivery)

        left = messages if nbytes is None else nbytes
        while left > 0:
            arrived, taken = yield from self.receive(sized)
            left -= 1 if nbytes is None else arrived
            if on_delivery is not None:
                on_delivery(taken)


class Datagram(Endpoint):
    """The unreliable Nectar datagram protocol, ``peer`` a (node id, port).
    A host builds the whole packet in the protocol's send mailbox."""

    def __init__(self, where, inbox: Optional[str], port: int, peer: Peer):
        super().__init__(where, inbox)
        self.port, self.peer = port, peer
        if self.inbox is not None:
            self.node.datagram.bind(port, self.inbox)
        self._header = NectarTransportHeader(
            protocol=NECTAR_PROTO_DATAGRAM,
            kind=NECTAR_KIND_DATA,
            src_port=port,
            dst_node=peer[0],
            dst_port=peer[1],
        ).pack()

    def packet(self, payload: bytes) -> bytes:
        """``payload`` behind the transport header a host must write itself."""
        return self._header + payload

    def send(self, payload: bytes) -> Generator:
        """One datagram to the peer."""
        if self.hosted is None:
            return self.node.datagram.send(self.port, *self.peer, payload)
        return self._put(self.node.datagram.send_mailbox, self.packet(payload))


class RMP(Endpoint):
    """One end of a reliable-message channel, ``peer`` a (node id, port).

    ``resident`` is a CAB sender whose payload already sits in CAB data
    memory (no copy charged), as in the paper's throughput runs.  A host
    end that sends names its CAB-resident send service with ``host_send``.
    """

    def __init__(
        self,
        where,
        inbox: Optional[str],
        port: int,
        peer: Peer,
        resident: bool = False,
        host_send: Optional[str] = None,
    ):
        super().__init__(where, inbox)
        rmp = self.node.rmp
        channel = self.channel = rmp.open(port, *peer, deliver_mailbox=self.inbox)
        self.resident = resident
        if self.hosted is not None and host_send is not None:
            self.send_mailbox = host_send_service(
                self.node, host_send, lambda _head, data: rmp.send(channel, data)
            )

    def send(self, payload: bytes) -> Generator:
        """One message; on the CAB the call returns when it is acknowledged."""
        if self.hosted is not None:
            return self._put(self.send_mailbox, payload)
        return self.node.rmp.send(self.channel, payload, charge_copy=not self.resident)


class UDP(Endpoint):
    """A UDP port, ``peer`` an (IP address, port).  A host end that sends
    names its CAB-resident send service with ``host_send`` and puts the
    addressing in front of each payload."""

    def __init__(
        self,
        where,
        inbox: Optional[str],
        port: int,
        peer: Peer,
        host_send: Optional[str] = None,
    ):
        super().__init__(where, inbox)
        self.port, self.peer = port, peer
        udp = self.node.udp
        if self.inbox is not None:
            udp.bind(port, self.inbox)
        if self.hosted is not None and host_send is not None:
            self.send_mailbox = host_send_service(
                self.node,
                host_send,
                lambda head, data: udp.send(*struct.unpack(_UDP_SEND_FMT, head), data),
                head_bytes=struct.calcsize(_UDP_SEND_FMT),
            )

    def send(self, payload: bytes) -> Generator:
        """One UDP datagram to the peer."""
        if self.hosted is None:
            return self.node.udp.send(self.port, *self.peer, payload)
        head = struct.pack(_UDP_SEND_FMT, self.port, *self.peer)
        return self._put(self.send_mailbox, head + payload)


class TCP(Endpoint):
    """One end of a TCP connection between CAB threads.

    Without a ``peer`` it is the passive end: it listens on ``port`` and
    accepted connections deliver into ``inbox``.  With a ``peer`` (IP
    address, port) it is the active end: the first :meth:`send` creates
    ``inbox`` and connects, inside the sending thread.
    """

    cab_only = True

    def __init__(self, where, inbox: str, port: int, peer: Optional[Peer] = None):
        super().__init__(where, inbox if peer is None else None)
        self.port, self.peer = port, peer
        self.conn = None
        self._client_inbox = inbox
        if peer is None:
            self.node.tcp.listen(port, lambda conn: self.inbox)

    def send(self, payload: bytes) -> Generator:
        """Append ``payload`` to the stream (connecting first if need be)."""
        tcp = self.node.tcp
        if self.conn is None:
            self.inbox = self.node.runtime.mailbox(self._client_inbox)
            self.conn = yield from tcp.connect(self.port, *self.peer, self.inbox)
        yield from tcp.send_direct(self.conn, payload)


class RequestResponse(Endpoint):
    """The request-response (RPC) transport.

    With an ``inbox`` it is a server on ``port``, and :meth:`echo` (or
    :func:`serve` on the inbox, for another handler) answers the requests.
    With a ``peer`` (node id, port) it is a client: :meth:`exchange` is one
    call, retried on the transport's round-trip timer, from ``port`` or a
    client port allocated at the first call.  A host client offloads the
    call to its CAB; a host server is described at :func:`serve`.
    """

    def __init__(
        self,
        where,
        inbox: Optional[str],
        port: Optional[int] = None,
        peer: Optional[Peer] = None,
    ):
        super().__init__(where, inbox)
        self.port, self.peer = port, peer
        if self.inbox is not None:
            self.node.rpc.serve(port, self.inbox)

    def exchange(self, payload: bytes, take: Hook = None) -> Generator:
        """One call: send ``payload``, return ``take(reply)``."""
        rpc = self.node.rpc
        if self.port is None:
            self.port = rpc.allocate_client_port()

        def call() -> Generator:
            return rpc.request(self.port, *self.peer, payload)

        if self.hosted is None:
            reply = yield from call()
        else:
            reply = yield from self.hosted.driver.call_cab(call)
        return None if take is None else take(_Held(reply))

    def echo(self) -> Generator:
        """Answer every request with the request's own bytes, until the
        simulation ends."""
        return serve(self.where, self.inbox, lambda body, _header: body)


class NMP(Endpoint):
    """One end of a reliable multicast stream on ``(group_id, port)``.

    With ``members`` (node ids in rank order) it is the sender, whose
    :meth:`flush` closes the stream's tail; with an ``inbox`` and a
    ``rank`` it is that member's receiving end.
    """

    cab_only = True

    def __init__(
        self,
        where,
        inbox: Optional[str],
        group_id: int,
        port: int,
        members: Tuple[int, ...] = (),
        rank: Optional[int] = None,
    ):
        super().__init__(where, inbox)
        if self.inbox is None:
            self.session = self.node.nmp.open_sender(group_id, port, members)
        else:
            self.session = self.node.nmp.join(group_id, port, rank, self.inbox)

    def send(self, payload: bytes) -> Generator:
        """Multicast one message (on the wire when the call returns)."""
        return self.node.nmp.send(self.session, payload)

    def flush(self) -> Generator:
        """Wait until every member has acknowledged the whole stream."""
        return self.node.nmp.flush(self.session)


def serve(where, mailbox: Mailbox, handler: Callable) -> Generator:
    """The request-response server loop over a mailbox registered with
    ``rpc.serve``: take a request, respond with ``handler(body, header)``.

    A handler that must wait returns a generator, run here to its return
    value; one that returns None has arranged its own
    ``rpc.respond(header, ...)``, typically from a thread it forked.  On a
    ``HostedNode`` the server task is a host process: it polls the mailbox,
    reads the body over the VME mapping and responds through a CAB task,
    the transport itself staying on the CAB.
    """
    node, hosted = _flavour(where)
    head = NectarTransportHeader.SIZE
    while True:
        if hosted is None:
            msg = yield from mailbox.begin_get()
        else:
            msg = yield from hosted.driver.begin_get(mailbox, blocking=False)
        header = NectarTransportHeader.unpack(msg.read(0, head))
        if hosted is None:
            body = msg.read(head)
            yield from mailbox.end_get(msg)
        else:
            body = yield from hosted.driver.read(msg, head)
            yield from hosted.driver.end_get(mailbox, msg)
        reply = handler(body, header)
        if isinstance(reply, GeneratorType):
            reply = yield from reply
        if reply is None:
            continue
        if hosted is None:
            yield from node.rpc.respond(header, reply)
        else:
            # call_cab returns once the thunk has run: nothing rebinds first.
            yield from hosted.driver.call_cab(lambda: node.rpc.respond(header, reply))


def rpc_service(where, name: str, port: int, handler: Callable) -> None:
    """A request-response service, whole: the mailbox ``name`` registered
    on ``port`` and a task ``name`` answering it with ``handler``."""
    server = RequestResponse(where, name, port)
    fork(where, name, serve(where, server.inbox, handler), service=True)


# -------------------------------------------------- the paper's two-node flows


def pair(
    kind: str, a, b, a_inbox: Optional[str], b_inbox: str, resident: bool = False
) -> Tuple[Endpoint, Endpoint]:
    """Open both ends of one ``kind`` flow of the two-node rig, on its
    conventional ports.

    ``a`` is the active end — sender, client, connecting side — and ``b``
    the one it addresses; each receives in the inbox named for it.  With
    ``a_inbox`` None nothing comes back, so a hosted ``b`` gets no send
    service (a request-response client never has an inbox).  ``resident``
    is :class:`RMP`'s, for ``a``.
    """
    node_a, node_b = _flavour(a)[0], _flavour(b)[0]
    id_a, id_b = node_a.node_id, node_b.node_id
    ip_a, ip_b = node_a.ip_address, node_b.ip_address
    back = a_inbox is not None
    if kind == "datagram":
        return Datagram(a, a_inbox, 11, (id_b, 12)), Datagram(b, b_inbox, 12, (id_a, 11))
    if kind == "rmp":
        b_send = "rmp-host-send-b" if back else None
        return (
            RMP(a, a_inbox, 21, (id_b, 22), resident, "rmp-host-send"),
            RMP(b, b_inbox, 22, (id_a, 21), host_send=b_send),
        )
    if kind == "request-response":
        return RequestResponse(a, None, peer=(id_b, 31)), RequestResponse(b, b_inbox, 31)
    if kind == "udp":
        b_send = "udp-host-send" if back else None
        return (
            UDP(a, a_inbox, 41, (ip_b, 42), "udp-host-send"),
            UDP(b, b_inbox, 42, (ip_a, 41), b_send),
        )
    if kind == "tcp":
        return TCP(a, a_inbox, 6000, (ip_b, 7000)), TCP(b, b_inbox, 7000)
    raise ConfigurationError(f"unknown traffic kind {kind!r}")


#: Payload fill byte per Table 1 kind (checksummed transports see its value).
_FILL = {"datagram": 0xA5, "rmp": 0x5A, "request-response": 0x3C, "udp": 0x69}


def measure_rtt(
    system: NectarSystem,
    a,
    b,
    kind: str,
    message_size: int = 32,
    rounds: int = 30,
    warmup: int = 5,
) -> LatencyRecorder:
    """Ping-pong ``rounds`` messages of ``kind`` between ``a`` and ``b``
    (Table 1); returns the round-trip samples after ``warmup``.

    Between two ``NectarNode`` s the ends are CAB threads; between two
    ``HostedNode`` s they are host processes whose receive sides poll, as in
    the paper's setup (no interrupt or context switch on receive, Sec. 6.1),
    while each send must interrupt the CAB and schedule a thread.
    """
    if kind not in _FILL:
        raise ConfigurationError(f"no round-trip measurement over {kind!r}")
    rpc = kind == "request-response"
    client, server = pair(
        kind, a, b, "lat-a-inbox", "lat-rpc-server" if rpc else "lat-b-inbox"
    )
    payload = bytes([_FILL[kind]]) * message_size
    recorder = LatencyRecorder()
    done = system.sim.event()

    def on_round(index: int, rtt_ns: int, _taken) -> None:
        if index >= warmup:
            recorder.record(rtt_ns)

    # A server task is up before its client; an echo peer starts after it.
    if rpc:
        fork(b, "lat-rpc-server", server.echo(), service=True)
    fork(a, "lat-client", client.pingpong(repeat(payload, rounds), on_round), done.succeed)
    if not rpc:
        fork(b, "lat-echo", server.echo(), service=True)
    system.run_until(done, limit=seconds(120))
    assert recorder.count == rounds - warmup
    return recorder


def measure_throughput(
    system: NectarSystem, a, b, kind: str, message_size: int, count: int, warmup: int = 3
) -> float:
    """Stream ``count`` messages of ``message_size`` bytes from ``a`` to
    ``b`` over ``kind`` ("rmp" or "tcp"); returns Mbit/s (Figs. 7 and 8).

    The clock starts at the delivery that completes ``warmup`` messages'
    worth of bytes and stops at the last.  CAB senders transmit from a
    resident buffer; between ``HostedNode`` s every byte crosses both VME
    buses (RMP only: host TCP is :mod:`repro.host.sockets`).
    """
    rmp = kind == "rmp"
    sender, receiver = pair(
        kind, a, b, None if rmp else "tp-cli-inbox", "tp-inbox", resident=True
    )
    payload = (b"\xAB" if rmp else b"\xCD") * message_size
    warm_bytes = message_size * warmup
    done = system.sim.event()
    arrived = [0]
    marks = []

    def on_delivery(nbytes: int) -> None:
        arrived[0] += nbytes
        if not marks and arrived[0] >= warm_bytes:
            marks.append((system.now, arrived[0]))

    fork(a, "tp-sender", sender.stream(repeat(payload, count + warmup)))
    fork(
        b,
        "tp-receiver",
        receiver.drain(
            nbytes=message_size * count + warm_bytes, take=size, on_delivery=on_delivery
        ),
        lambda: done.succeed(system.now),
    )
    end = system.run_until(done, limit=seconds(600))
    start, base = marks[0]
    return throughput_mbps(arrived[0] - base, end - start)
