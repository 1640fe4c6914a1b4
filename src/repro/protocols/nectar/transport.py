"""The shared receive table of the Nectar-specific transports.

One datalink binding (type ``NC``) feeds every Nectar transport.  A
sub-protocol plugs in with one :meth:`NectarTransportLayer.register` call:
its per-packet receive cost, its counter scope, and a :class:`PacketKind`
per packet kind.  Every frame then takes the same interrupt-time path,
without a copy: parse the 28-byte header, find the protocol, the kind and
the session, then, inside one ``(<scope>, "recv")`` span, charge the cost,
free a control frame's buffer, and call the kind's handler.  An unknown
kind counts ``<scope>_malformed`` and a failed lookup the kind's own
counter; the layer frees the buffer of both, so a handler frees only what
it decides to discard (:meth:`~NectarTransportLayer.drop`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, NamedTuple, Optional, Tuple

from repro.errors import ProtocolError
from repro.protocols.datalink import Datalink, ProtocolBinding
from repro.protocols.headers import DL_TYPE_NECTAR, DatalinkHeader, NectarTransportHeader
from repro.runtime.kernel import Runtime
from repro.runtime.mailbox import Message

__all__ = ["NectarTransportLayer", "PacketKind"]


class PacketKind(NamedTuple):
    """How the transport layer receives one packet kind of a sub-protocol."""

    #: Header -> the session the packet belongs to, or None.
    lookup: Callable[[NectarTransportHeader], Optional[Any]]
    #: Counter bumped (and the packet freed) when ``lookup`` finds nothing.
    no_session: str
    #: ``(session, msg, header)`` -> interrupt-time generator that queues or
    #: drops ``msg`` (``None`` for a control frame, whose buffer is freed).
    handler: Callable[[Any, Optional[Message], NectarTransportHeader], Generator]
    #: A header-only frame (ACK, SYNC, NACK, ARRIVE, ...).
    control: bool = False


class NectarTransportLayer:
    """Demultiplexes Nectar transport packets to sub-protocols."""

    def __init__(self, runtime: Runtime, datalink: Datalink):
        self.runtime = runtime
        self.datalink = datalink
        self.node_id = datalink.node_id
        self.input_mailbox = runtime.mailbox("nectar-input")
        #: protocol -> (receive cost, counter/span scope, kind -> PacketKind)
        self._table: Dict[int, Tuple[int, str, Dict[int, PacketKind]]] = {}
        self.stats = runtime.stats
        datalink.register(
            DL_TYPE_NECTAR,
            ProtocolBinding(
                input_mailbox=self.input_mailbox,
                header_bytes=NectarTransportHeader.SIZE,
                on_packet=self._demux,
            ),
        )

    def register(
        self, protocol: int, cost_ns: int, scope: str, kinds: Dict[int, PacketKind]
    ) -> None:
        """Bind a sub-protocol: the cost charged per received packet, the
        scope of its ``<scope>_malformed`` drops and ``(<scope>, "recv")``
        spans, and its kinds."""
        if protocol in self._table:
            raise ProtocolError(f"Nectar sub-protocol {protocol} already registered")
        self._table[protocol] = (cost_ns, scope, kinds)

    def drop(self, msg: Message, counter: Optional[str] = None) -> Generator:
        """Interrupt-context: free a received packet that is not passed on,
        counting why under ``counter`` (if the reason has one)."""
        if counter is not None:
            self.stats.add(counter)
        yield from self.input_mailbox.iabort_put(msg)

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

        The repair path: NMP repair retransmissions fire from interrupt
        handlers, where a mailbox allocation could block — so the payload
        rides as already-held raw bytes through :meth:`Datalink.send_raw`
        (one counted copy).
        """
        header.src_node = self.node_id
        header.length = len(payload)
        yield from self.datalink.send_raw(
            header.dst_node, DL_TYPE_NECTAR, header.pack() + payload
        )

    # -- receive demux (interrupt context) -------------------------------------------

    def _demux(self, msg: Message, dl_header: DatalinkHeader) -> Generator:
        try:
            header = NectarTransportHeader.unpack(msg.view())
        except ProtocolError:
            yield from self.drop(msg, "nectar_malformed")
            return
        entry = self._table.get(header.protocol)
        if entry is None:
            yield from self.drop(msg, "nectar_unknown_protocol")
            return
        cost_ns, scope, kinds = entry
        kind = kinds.get(header.kind)
        if kind is None:
            yield from self.drop(msg, f"{scope}_malformed")
            return
        lookup, no_session, handler, control = kind
        session = lookup(header)
        if session is None:
            yield from self.drop(msg, no_session)
            return
        with self.runtime.span(scope, "recv"):
            yield cost_ns
            if control:
                yield from self.input_mailbox.iabort_put(msg)
                msg = None
            yield from handler(session, msg, header)
