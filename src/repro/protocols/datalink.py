"""The datalink layer on the CAB (paper Sec. 4.1 mechanism).

Receive side: when a packet starts arriving over the fiber, the datalink
layer (running at interrupt time) reads the datalink header and initiates a
DMA operation placing the packet into the input mailbox of the protocol the
packet belongs to.  After the protocol header has arrived it issues a
*start-of-data* upcall so useful work (e.g. the IP header sanity check) can
overlap the arrival of the rest of the packet; when the whole packet has
landed (and the hardware CRC has been checked) it issues an *end-of-data*
upcall.

Send side: a thread builds a frame (datalink header + packet bytes read from
the mailbox message) and programs the transmit DMA; an optional TX-complete
interrupt frees the send buffer once the frame has left CAB memory.

Zero-copy discipline (docs/buffers.md): the frame buffer is allocated with
``DatalinkHeader.SIZE`` bytes of headroom, the packet bytes are materialized
into it with exactly one counted host copy (the TX DMA draining CAB
memory), and the datalink header is *prepended* into the headroom instead
of rebuilding the payload.  The receive side unpacks headers straight from
frame and message views, with no intermediate ``bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, Optional

from repro.buf.packet import PacketBuffer
from repro.cab.board import CAB
from repro.errors import ProtocolError
from repro.hub.network import NectarNetwork
from repro.hw.fiber import Frame
from repro.protocols.addressing import NodeRegistry
from repro.protocols.headers import DatalinkHeader
from repro.runtime.kernel import Runtime
from repro.runtime.mailbox import Mailbox, Message

__all__ = ["Datalink", "ProtocolBinding"]


@dataclass
class ProtocolBinding:
    """How the datalink hands packets of one type to a protocol."""

    #: Mailbox whose buffer space receives packets of this type.
    input_mailbox: Mailbox
    #: Protocol header size past the datalink header; once this much has been
    #: DMA'd to memory, ``on_header`` fires.
    header_bytes: int = 0
    #: Start-of-data upcall (interrupt context): header sanity checks that
    #: overlap the arrival of the packet body.
    on_header: Optional[Callable[[Message, DatalinkHeader], Generator]] = None
    #: End-of-data upcall (interrupt context): must queue or free the message.
    on_packet: Optional[Callable[[Message, DatalinkHeader], Generator]] = None


class Datalink:
    """One CAB's datalink layer."""

    def __init__(
        self,
        runtime: Runtime,
        network: NectarNetwork,
        registry: NodeRegistry,
        mtu: int = 9000,
    ):
        self.runtime = runtime
        self.cab: CAB = runtime.cab
        self.costs = runtime.costs
        self.registry = registry
        self.network = network
        self.node_id = registry.node_id(self.cab.name)
        self.mtu = mtu
        self._bindings: Dict[int, ProtocolBinding] = {}
        self.cab.rx_dispatch = self._sop_handler
        self.stats = runtime.cab.stats

    # --------------------------------------------------------------- binding

    def register(self, dl_type: int, binding: ProtocolBinding) -> None:
        """Bind a protocol to a datalink packet type."""
        if dl_type in self._bindings:
            raise ProtocolError(f"datalink type 0x{dl_type:04x} already bound")
        if binding.on_packet is None:
            # Default delivery: queue the packet in the input mailbox.
            binding.on_packet = self._default_on_packet(binding)
        self._bindings[dl_type] = binding

    @staticmethod
    def _default_on_packet(binding: ProtocolBinding):
        def deliver(msg: Message, header: DatalinkHeader) -> Generator:
            yield from binding.input_mailbox.iend_put(msg)

        return deliver

    # ------------------------------------------------------------------ send

    def _build_frame_payload(self, header: DatalinkHeader, packet_bytes):
        """One counted copy of the packet into a headroom-reserving buffer.

        Models the TX DMA materializing the frame out of CAB memory: the
        frame gets private refcounted storage (so the mailbox message can
        be freed at TX-complete while the frame is still on the wire) and
        the datalink header is prepended into reserved headroom — no
        header+payload rebuild.
        """
        view = PacketBuffer.alloc(
            len(packet_bytes),
            headroom=DatalinkHeader.SIZE,
            meter=self.cab.copy_meter,
            label=f"{self.cab.name}.dl-frame",
        )
        view.fill_from(packet_bytes)
        return view.prepend(header.pack())

    def send_message(
        self,
        dst_node: int,
        dl_type: int,
        msg: Message,
        free_after: bool = True,
    ) -> Generator:
        """Thread-context: frame a mailbox message and start the TX DMA.

        If ``free_after``, the message's buffer is released by the
        TX-complete interrupt once the DMA has drained it (the caller must
        not touch the message again).
        """
        with self.runtime.span("datalink", "send", {"dst": dst_node, "bytes": msg.size}):
            yield self.costs.dl_send_ns
            header = DatalinkHeader(
                dl_type=dl_type,
                length=msg.size,
                src_node=self.node_id,
                dst_node=dst_node,
            )
            frame = Frame(
                route=self.registry.route_to(self.cab.name, dst_node),
                payload=self._build_frame_payload(header, msg.view()),
                src=self.cab.name,
                seqno=next(self.registry.frame_seqnos),
            )
            tracer = self.runtime.tracer
            if tracer.sink is not None:
                # Async span spanning the frame's life on the wire; the
                # receiver's end-of-packet upcall (or nobody, for drops)
                # closes it.
                tracer.async_begin(
                    "datalink", "frame", frame.seqno, {"bytes": frame.size}
                )
            if free_after:
                mailbox = msg.mailbox

                def release(_frame: Frame) -> None:
                    mailbox._release_storage(msg)
                    self.runtime.wake_heap_waiters()

                frame.on_dma_done = release
            yield from self.cab.send_frame(frame)

    def send_raw(self, dst_node: int, dl_type: int, packet: bytes) -> Generator:
        """Thread/interrupt-context: frame raw bytes (control packets, ACKs).

        Models building the packet in a scratch buffer: charges the memcpy.
        """
        yield self.costs.dl_send_ns
        yield self.costs.cab_memcpy_ns(len(packet))
        header = DatalinkHeader(
            dl_type=dl_type,
            length=len(packet),
            src_node=self.node_id,
            dst_node=dst_node,
        )
        frame = Frame(
            route=self.registry.route_to(self.cab.name, dst_node),
            payload=self._build_frame_payload(header, packet),
            src=self.cab.name,
            seqno=next(self.registry.frame_seqnos),
        )
        tracer = self.runtime.tracer
        if tracer.sink is not None:
            tracer.async_begin("datalink", "frame", frame.seqno, {"bytes": frame.size})
        yield from self.cab.send_frame(frame)

    # ------------------------------------------------------------------ receive

    def _sop_handler(self, frame: Frame) -> Generator:
        """Start-of-packet interrupt handler."""
        yield self.costs.dl_sop_handler_ns
        try:
            header = DatalinkHeader.unpack(frame.payload.mv())
        except ProtocolError:
            self.stats.add("dl_bad_header")
            self.cab.discard_rx(frame)
            return
        binding = self._bindings.get(header.dl_type)
        if binding is None:
            self.stats.add("dl_unknown_type")
            self.cab.discard_rx(frame)
            return
        msg = yield from binding.input_mailbox.ibegin_put(frame.size)
        if msg is None:
            # No buffer space: the packet is dropped (transports recover).
            self.stats.add("dl_no_buffer")
            self.cab.discard_rx(frame)
            return
        self.cab.start_rx_dma(
            frame,
            self.cab.data_mem,
            msg.addr,
            header_bytes=DatalinkHeader.SIZE + binding.header_bytes,
            on_header=self._make_header_upcall(binding, msg, header),
            on_complete=self._make_completion(binding, msg, header),
        )

    def _make_header_upcall(self, binding: ProtocolBinding, msg: Message, header: DatalinkHeader):
        if binding.on_header is None:
            return None

        def upcall(_frame: Frame) -> Generator:
            yield from binding.on_header(msg, header)

        return upcall

    def _make_completion(self, binding: ProtocolBinding, msg: Message, header: DatalinkHeader):
        def complete(_frame: Frame, crc_ok: bool) -> Generator:
            yield self.costs.dl_eop_handler_ns
            tracer = self.runtime.tracer
            if tracer.sink is not None:
                # Close the sender-side async span; frames dropped en route
                # simply leave theirs open (visible as unfinished spans).
                tracer.async_end(
                    "datalink", "frame", _frame.seqno, {"crc_ok": crc_ok}
                )
            if not crc_ok:
                self.stats.add("dl_crc_drops")
                yield from binding.input_mailbox.iabort_put(msg)
                return
            msg.trim_front(DatalinkHeader.SIZE)
            yield from binding.on_packet(msg, header)

        return complete
