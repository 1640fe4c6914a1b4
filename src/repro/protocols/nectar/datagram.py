"""The Nectar datagram protocol: unreliable, lowest latency (Table 1).

Receive side runs entirely at interrupt time: the demux upcall trims the
transport header in place and enqueues the payload into the mailbox bound to
the destination port — no thread is scheduled on the receive path (which is
why, in the Fig. 6 breakdown, the receiving side is cheaper than the sending
side, where a CAB thread must be woken).

Send side: CAB threads call :meth:`send` directly; host processes place a
pre-framed packet in the send mailbox, whose contents a send thread
transmits (the host wakes it through the CAB signal queue).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Union

from repro.errors import ProtocolError
from repro.protocols.headers import (
    NECTAR_KIND_DATA,
    NECTAR_PROTO_DATAGRAM,
    NectarTransportHeader,
)
from repro.protocols.nectar.transport import NectarTransportLayer, PacketKind
from repro.runtime.kernel import Runtime
from repro.runtime.mailbox import Mailbox, Message

__all__ = ["DatagramProtocol"]


class DatagramProtocol:
    """Unreliable datagrams addressed to network-wide mailbox ports."""

    def __init__(self, transport: NectarTransportLayer):
        self.transport = transport
        self.runtime: Runtime = transport.runtime
        self.costs = self.runtime.costs
        self._ports: Dict[int, Mailbox] = {}
        self.stats = self.runtime.stats
        #: Host-facing send mailbox: messages are complete packets
        #: ([28-byte header][payload]) built by the Nectarine library.
        self.send_mailbox = self.runtime.mailbox("datagram-send")

        def port(header: NectarTransportHeader) -> Optional[Mailbox]:
            return self._ports.get(header.dst_port)

        kinds = {NECTAR_KIND_DATA: PacketKind(port, "datagram_no_port", self._recv_data)}
        transport.register(NECTAR_PROTO_DATAGRAM, self.costs.nectar_datagram_ns, "datagram", kinds)
        self.runtime.fork_system(self._send_thread(), name="datagram-send")

    # -- binding -------------------------------------------------------------

    def bind(self, port: int, mailbox: Mailbox) -> None:
        """Deliver datagrams for ``port`` into ``mailbox``."""
        if port in self._ports:
            raise ProtocolError(f"datagram port {port} already bound")
        self._ports[port] = mailbox

    # -- sending --------------------------------------------------------------

    def send(
        self,
        src_port: int,
        dst_node: int,
        dst_port: int,
        data: Union[bytes, Message],
    ) -> Generator:
        """Thread-context send (CAB-resident senders call this directly).

        ``data`` is either raw bytes (copied into a fresh packet) or a
        Message already laid out as ``[28-byte header room][payload]``.
        """
        yield self.costs.nectar_datagram_ns
        if isinstance(data, Message):
            msg = data
        else:
            msg = yield from self.send_mailbox.begin_put(
                NectarTransportHeader.SIZE + len(data)
            )
            yield self.costs.cab_memcpy_ns(len(data))
            msg.write(NectarTransportHeader.SIZE, data)
        header = NectarTransportHeader(
            protocol=NECTAR_PROTO_DATAGRAM,
            kind=NECTAR_KIND_DATA,
            src_port=src_port,
            dst_node=dst_node,
            dst_port=dst_port,
        )
        self.stats.add("datagram_out")
        yield from self.transport.send_message(header, msg)

    # -- the send thread (services host writers) -------------------------------

    def _send_thread(self) -> Generator:
        """Transmit packets that host processes queued in the send mailbox.

        The packet header (already written by the host) names the
        destination; this thread only stamps the source node and transmits.
        """
        while True:
            msg = yield from self.send_mailbox.begin_get()
            yield self.costs.nectar_datagram_ns
            header = NectarTransportHeader.unpack(
                msg.view(0, NectarTransportHeader.SIZE)
            )
            self.stats.add("datagram_out")
            self.runtime.tracer.emit("datagram", "cab_send_start")
            yield from self.transport.send_message(header, msg)

    # -- receiving (interrupt context) --------------------------------------------

    def _recv_data(
        self, mailbox: Mailbox, msg: Message, header: NectarTransportHeader
    ) -> Generator:
        msg.trim_front(NectarTransportHeader.SIZE)
        self.stats.add("datagram_in")
        self.runtime.tracer.emit("datagram", "cab_deliver")
        yield from self.transport.input_mailbox.ienqueue(msg, mailbox)
