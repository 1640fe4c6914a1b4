"""The shared demux layer for the Nectar-specific transports.

One datalink binding (type ``NC``) feeds all three Nectar transports; the
28-byte transport header is parsed at interrupt time and the packet is
handed to the registered sub-protocol, still without copying.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator

from repro.errors import ProtocolError
from repro.protocols.datalink import Datalink, ProtocolBinding
from repro.protocols.headers import DL_TYPE_NECTAR, DatalinkHeader, NectarTransportHeader
from repro.runtime.kernel import Runtime
from repro.runtime.mailbox import Mailbox, Message

__all__ = ["NectarTransportLayer"]

#: Sub-protocol packet handler: (message, transport header) -> generator run
#: at interrupt time.  Must queue or free the message.
PacketHandler = Callable[[Message, NectarTransportHeader], Generator]


class NectarTransportLayer:
    """Demultiplexes Nectar transport packets to sub-protocols."""

    def __init__(self, runtime: Runtime, datalink: Datalink):
        self.runtime = runtime
        self.costs = runtime.costs
        self.datalink = datalink
        self.node_id = datalink.node_id
        self.input_mailbox = runtime.mailbox("nectar-input")
        self._handlers: Dict[int, PacketHandler] = {}
        self.stats = runtime.stats
        datalink.register(
            DL_TYPE_NECTAR,
            ProtocolBinding(
                input_mailbox=self.input_mailbox,
                header_bytes=NectarTransportHeader.SIZE,
                on_packet=self._demux,
            ),
        )

    def register(self, protocol: int, handler: PacketHandler) -> None:
        """Bind a sub-protocol's packet handler."""
        if protocol in self._handlers:
            raise ProtocolError(f"Nectar sub-protocol {protocol} already registered")
        self._handlers[protocol] = handler

    # -- send helpers shared by the sub-protocols ---------------------------------

    def send_message(self, header: NectarTransportHeader, msg: Message) -> Generator:
        """Thread-context: write the header into the message and transmit.

        ``msg`` is laid out as ``[28-byte header room][payload]``.
        """
        header.src_node = self.node_id
        header.length = msg.size - NectarTransportHeader.SIZE
        msg.write(0, header.pack())
        yield from self.datalink.send_message(
            header.dst_node, DL_TYPE_NECTAR, msg, free_after=True
        )

    def send_control(self, header: NectarTransportHeader) -> Generator:
        """Thread- or interrupt-context: transmit a header-only packet (ACKs)."""
        header.src_node = self.node_id
        header.length = 0
        yield from self.datalink.send_raw(
            header.dst_node, DL_TYPE_NECTAR, header.pack()
        )

    def send_raw_message(
        self, header: NectarTransportHeader, payload: bytes
    ) -> Generator:
        """Thread- or interrupt-context: transmit a header plus raw payload.

        The repair path: NMP repair retransmissions and collective
        broadcast forwards fire from interrupt handlers, where a mailbox
        allocation could block — so the payload rides as already-held raw
        bytes through :meth:`Datalink.send_raw` (one counted copy).
        """
        header.src_node = self.node_id
        header.length = len(payload)
        yield from self.datalink.send_raw(
            header.dst_node, DL_TYPE_NECTAR, header.pack() + payload
        )

    # -- receive demux (interrupt context) -------------------------------------------

    def _demux(self, msg: Message, dl_header: DatalinkHeader) -> Generator:
        if msg.size < NectarTransportHeader.SIZE:
            self.stats.add("nectar_malformed")
            yield from self.input_mailbox.iabort_put(msg)
            return
        try:
            header = NectarTransportHeader.unpack(
                msg.view(0, NectarTransportHeader.SIZE)
            )
        except ProtocolError:
            self.stats.add("nectar_malformed")
            yield from self.input_mailbox.iabort_put(msg)
            return
        handler = self._handlers.get(header.protocol)
        if handler is None:
            self.stats.add("nectar_unknown_protocol")
            yield from self.input_mailbox.iabort_put(msg)
            return
        yield from handler(msg, header)
