"""Fiber-optic link endpoints and link-level frames.

Each CAB connects to a HUB I/O port with two optical fibers, one per
direction (paper Sec. 2.2).  Frames carry a *source route* (the sequence of
HUB output ports to traverse, paper Sec. 2.1) plus the datalink payload
bytes; the CRC is computed by hardware at egress and checked at ingress.

Frames move as :class:`~repro.hw.fifo.Chunk` pieces so that transmission,
switching and reception overlap in time (cut-through), and so that FIFO
backpressure (the HUB's low-level flow control) is exercised for real.

Zero-copy discipline (docs/buffers.md): a frame's payload is a
:class:`~repro.buf.BufView` over a private refcounted
:class:`~repro.buf.PacketBuffer` — materialized exactly once at send time
(the TX DMA moving bytes out of CAB memory) with the datalink header
prepended into reserved headroom.  CRC, chunking, store-and-forward, and
the receive DMA all operate on views of that one buffer; whoever
terminates the frame's journey calls :meth:`Frame.release`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.buf.packet import BufView, PacketBuffer
from repro.errors import CABError
from repro.hw.crc import crc32
from repro.hw.fifo import ByteFIFO, Chunk
from repro.sim.core import Simulator

__all__ = ["CHUNK_BYTES", "FiberIn", "FiberOut", "Frame"]

#: Granularity at which frames move through FIFOs and links.  Small enough
#: that header processing overlaps the arrival of an 8 KB body; large enough
#: that the event count stays low.
CHUNK_BYTES = 512


@dataclass
class Frame:
    """A link-level frame: source route + a view of the datalink payload."""

    route: tuple[int, ...]
    payload: BufView
    src: str = "?"
    crc: int = 0
    #: Unique per network (:attr:`NodeRegistry.frame_seqnos`); 0 for a
    #: frame built outside one.
    seqno: int = 0
    created_ns: int = 0
    #: Invoked (in event context) when the sender's DMA has fully drained the
    #: frame from CAB memory — the send buffer may be reused from then on.
    on_dma_done: Optional[Callable[["Frame"], None]] = None
    #: Set by a fault injector: the network eats the frame (never delivered).
    drop: bool = False

    def __post_init__(self):
        if not isinstance(self.payload, BufView):
            # Construction from raw bytes (tests, cross-process hand-off
            # import): adopt a private mutable copy so this frame owns its
            # storage outright — the one sanctioned boundary copy here.
            self.payload = PacketBuffer.wrap(
                bytearray(self.payload), label="frame"  # nectarlint: disable=NB201
            )
        if len(self.payload) == 0:
            raise CABError("empty frame payload")

    @property
    def size(self) -> int:
        return len(self.payload)

    def seal(self) -> None:
        """Calculate the egress CRC over the (current) payload bytes."""
        self.crc = crc32(self.payload.mv())

    def crc_ok(self) -> bool:
        """Ingress check: does the payload still match the egress CRC?"""
        return crc32(self.payload.mv()) == self.crc

    def release(self) -> None:
        """Drop the frame's reference on its payload storage.

        Called by whoever terminates the frame's journey: the receive DMA
        (delivered), the receive sink (discarded), the link process (frames
        eaten by a drop injector), or the hand-off seam when the frame's
        payload is exported to another shard.
        """
        self.payload.release()

    def corrupt(self, index: int) -> None:
        """Flip one payload byte in place (a wire fault).

        Called after :meth:`seal`, so the egress CRC no longer matches and
        the receiving CAB's hardware CRC check rejects the frame.
        """
        if not 0 <= index < len(self.payload):
            raise CABError(
                f"corrupt index {index} outside {len(self.payload)}-byte payload"
            )
        self.payload[index] ^= 0xFF

    def chunks(self) -> Iterator[Chunk]:
        """Split the frame into link chunks."""
        total = len(self.payload)
        offset = 0
        while offset < total:
            length = min(CHUNK_BYTES, total - offset)
            # frame, offset, length, is_first, is_last
            yield Chunk(self, offset, length, offset == 0, offset + length >= total)
            offset += length

    def chunk_bytes(self, chunk: Chunk) -> memoryview:
        """The payload bytes covered by one chunk, as a zero-copy view.

        Consumers never mutate through this: the receive DMA copies it into
        CAB memory (the one genuine landing copy) and tests reassemble from
        it.  Wire corruption goes through :meth:`corrupt` instead.
        """
        return self.payload.mv()[chunk.offset : chunk.offset + chunk.length]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Frame #{self.seqno} {self.size}B route={self.route} from {self.src}>"


class FiberOut:
    """The transmit fiber endpoint of a CAB: the output FIFO.

    The CAB's transmit DMA fills the FIFO from data memory; the network link
    process drains it onto the fiber at line rate.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "fiber-out"):
        self.sim = sim
        self.name = name
        self.fifo = ByteFIFO(sim, capacity, name=f"{name}.fifo")


class FiberIn:
    """The receive fiber endpoint of a CAB: the input FIFO.

    The network pushes arriving chunks here (blocking on FIFO space — that is
    the link-level flow control); the CAB's receive path drains it.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "fiber-in"):
        self.sim = sim
        self.name = name
        self.fifo = ByteFIFO(sim, capacity, name=f"{name}.fifo")
