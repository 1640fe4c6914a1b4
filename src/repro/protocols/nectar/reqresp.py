"""The Nectar request-response protocol: the transport for client-server RPC.

A client sends a REQUEST and blocks for the matching RESPONSE, retrying on
the timeout of a :class:`~repro.protocols.rto.RetransmitTimer` kept per
server it calls (a call answered on its first try is a round-trip sample);
a server binds a port to a mailbox, services requests from it, and answers
with :meth:`RequestResponseProtocol.respond`.  Servers keep a small
cache of recent responses so a duplicated request (after a lost response) is
answered without re-executing the handler — the at-most-once behaviour an
RPC layer wants from its transport.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Generator, Optional, Tuple

from repro.errors import ProtocolError
from repro.protocols.headers import (
    NECTAR_KIND_REQUEST,
    NECTAR_KIND_RESPONSE,
    NECTAR_PROTO_REQRESP,
    NectarTransportHeader,
)
from repro.protocols.nectar.transport import NectarTransportLayer, PacketKind
from repro.protocols.rto import RetransmitTimer
from repro.runtime.kernel import Runtime
from repro.runtime.mailbox import Mailbox, Message

__all__ = ["RequestResponseProtocol"]

RPC_MAX_TRIES = 5
#: Responses remembered per server port for duplicate suppression.
RESPONSE_CACHE_SIZE = 64


class _PendingCall:
    """Client-side state for one outstanding request."""

    def __init__(self, runtime: Runtime, seq: int):
        self.seq = seq
        self.response: Optional[bytes] = None
        self.mutex = runtime.mutex(f"rpc-call-{seq}")
        self.cond = runtime.condition(f"rpc-call-{seq}")


class RequestResponseProtocol:
    """The request-response transport of one CAB."""

    def __init__(self, transport: NectarTransportLayer):
        self.transport = transport
        self.runtime: Runtime = transport.runtime
        self.costs = self.runtime.costs
        self.stats = self.runtime.stats
        self._next_seq = 1
        self._next_client_port = 0x4000_0000
        self._pending: Dict[Tuple[int, int], _PendingCall] = {}  # (client_port, seq)
        self._server_ports: Dict[int, Mailbox] = {}
        self._response_cache: Dict[int, OrderedDict] = {}
        #: (server node, server port) -> the round-trip timer of its calls
        self._timers: Dict[Tuple[int, int], RetransmitTimer] = {}

        def server(header: NectarTransportHeader) -> Optional[Mailbox]:
            return self._server_ports.get(header.dst_port)

        def call(header: NectarTransportHeader) -> Optional[_PendingCall]:
            return self._pending.get((header.dst_port, header.seq))

        kinds = {
            NECTAR_KIND_REQUEST: PacketKind(server, "rpc_no_port", self._recv_request),
            NECTAR_KIND_RESPONSE: PacketKind(call, "rpc_orphan_responses", self._recv_response),
        }
        transport.register(NECTAR_PROTO_REQRESP, self.costs.nectar_reqresp_ns, "rpc", kinds)

    # -- server side ---------------------------------------------------------

    def serve(self, port: int, request_mailbox: Mailbox) -> None:
        """Bind a server port: requests are delivered (with their transport
        header left in place) into ``request_mailbox``."""
        if port in self._server_ports:
            raise ProtocolError(f"request-response port {port} already served")
        self._server_ports[port] = request_mailbox
        self._response_cache[port] = OrderedDict()

    def respond(
        self, request_header: NectarTransportHeader, data: bytes
    ) -> Generator:
        """Thread-context: answer a request (the header names the client)."""
        yield self.costs.nectar_reqresp_ns
        port = request_header.dst_port
        cache = self._response_cache.get(port)
        if cache is not None:
            key = (request_header.src_node, request_header.src_port, request_header.seq)
            cache[key] = data
            while len(cache) > RESPONSE_CACHE_SIZE:
                cache.popitem(last=False)
        yield from self._send_response(request_header, data)

    def _send_response(
        self, request_header: NectarTransportHeader, data: bytes
    ) -> Generator:
        msg = yield from self.transport.input_mailbox.begin_put(
            NectarTransportHeader.SIZE + len(data)
        )
        yield self.costs.cab_memcpy_ns(len(data))
        msg.write(NectarTransportHeader.SIZE, data)
        header = NectarTransportHeader(
            protocol=NECTAR_PROTO_REQRESP,
            kind=NECTAR_KIND_RESPONSE,
            seq=request_header.seq,
            src_port=request_header.dst_port,
            dst_node=request_header.src_node,
            dst_port=request_header.src_port,
        )
        self.stats.add("rpc_responses_out")
        yield from self.transport.send_message(header, msg)

    # -- client side ----------------------------------------------------------

    def allocate_client_port(self) -> int:
        """A unique reply port for one client."""
        port = self._next_client_port
        self._next_client_port += 1
        return port

    def request(
        self,
        client_port: int,
        dst_node: int,
        dst_port: int,
        data: bytes,
    ) -> Generator:
        """Thread-context: send a request, block for the response bytes."""
        ops = self.runtime.ops
        yield self.costs.nectar_reqresp_ns
        seq = self._next_seq
        self._next_seq += 1
        call = _PendingCall(self.runtime, seq)
        self._pending[(client_port, seq)] = call
        timer = self._timers.get((dst_node, dst_port))
        if timer is None:
            timer = self._timers[(dst_node, dst_port)] = RetransmitTimer()

        def transmit(tries: int) -> Generator:
            if tries > 1:
                self.stats.add("rpc_retries")
            msg = yield from self.transport.input_mailbox.begin_put(
                NectarTransportHeader.SIZE + len(data)
            )
            yield self.costs.cab_memcpy_ns(len(data))
            msg.write(NectarTransportHeader.SIZE, data)
            header = NectarTransportHeader(
                protocol=NECTAR_PROTO_REQRESP,
                kind=NECTAR_KIND_REQUEST,
                seq=seq,
                src_port=client_port,
                dst_node=dst_node,
                dst_port=dst_port,
            )
            self.stats.add("rpc_requests_out")
            yield from self.transport.send_message(header, msg)

        try:
            answered = yield from timer.exchange(
                ops,
                call.cond,
                call.mutex,
                lambda: call.response is not None,
                transmit,
                RPC_MAX_TRIES,
            )
            if not answered:
                raise ProtocolError(
                    f"RPC request to node {dst_node} port {dst_port} timed out "
                    f"after {RPC_MAX_TRIES} tries"
                )
            return call.response
        finally:
            del self._pending[(client_port, seq)]

    # -- receiving (interrupt context) --------------------------------------------

    def _recv_request(
        self, mailbox: Mailbox, msg: Message, header: NectarTransportHeader
    ) -> Generator:
        cache = self._response_cache[header.dst_port]
        key = (header.src_node, header.src_port, header.seq)
        if key in cache:
            # Duplicate request: replay the cached response (still at
            # interrupt time) instead of re-running the server.
            yield from self.transport.drop(msg, "rpc_duplicate_requests")
            yield from self._replay_response(header, cache[key])
            return
        self.stats.add("rpc_requests_in")
        # Deliver with the transport header in place so the server can reply.
        yield from self.transport.input_mailbox.ienqueue(msg, mailbox)

    def _replay_response(
        self, request_header: NectarTransportHeader, data: bytes
    ) -> Generator:
        msg = yield from self.transport.input_mailbox.ibegin_put(
            NectarTransportHeader.SIZE + len(data)
        )
        if msg is None:
            return
        yield self.costs.cab_memcpy_ns(len(data))
        msg.write(NectarTransportHeader.SIZE, data)
        header = NectarTransportHeader(
            protocol=NECTAR_PROTO_REQRESP,
            kind=NECTAR_KIND_RESPONSE,
            seq=request_header.seq,
            src_port=request_header.dst_port,
            dst_node=request_header.src_node,
            dst_port=request_header.src_port,
        )
        yield from self.transport.send_message(header, msg)

    def _recv_response(
        self, call: _PendingCall, msg: Message, header: NectarTransportHeader
    ) -> Generator:
        data = msg.read(NectarTransportHeader.SIZE)
        yield from self.transport.drop(msg)
        call.response = data
        self.stats.add("rpc_responses_in")
        self.runtime.ops.signal_nocost(call.cond)
