"""The CAB board: CPU, memories, FIFOs, DMA engines, fiber endpoints.

Mirrors the block diagram of paper Sec. 2.2:

* a general-purpose RISC CPU (16.5 MHz SPARC) — :class:`repro.cab.cpu.CPU`;
* program memory (128 KB PROM + 512 KB RAM) and data memory (1 MB),
  bounds-checked (the 1 KB-page protection hardware is not modelled);
* input/output FIFOs buffering the fibers;
* a DMA controller managing simultaneous fiber<->memory transfers with
  low-level flow control, leaving the CPU free for protocol work;
* hardware CRC for incoming and outgoing data (checked at end of frame);
* a VME interface to the host (attached later by the host model).

The receive path reproduces the paper's pipeline (Sec. 4.1): when a packet
starts arriving, the board posts a *start-of-packet* interrupt; the datalink
handler (installed via :attr:`CAB.rx_dispatch`) inspects the header and
programs the receive DMA toward a mailbox buffer; the DMA issues a
*start-of-data* upcall once the protocol header is in memory (useful work
overlaps the arrival of the body) and an *end-of-packet* interrupt when the
whole frame has landed and the CRC has been checked.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.cab.cpu import CPU
from repro.errors import CABError
from repro.hw.fiber import FiberIn, FiberOut, Frame
from repro.hw.fifo import Chunk
from repro.hw.memory import MemoryRegion
from repro.model.costs import CostModel
from repro.sim.core import Event, Simulator
from repro.sim.primitives import Store
from repro.telemetry.metrics import CounterScope
from repro.units import KB, MB

__all__ = ["CAB"]

PROGRAM_MEMORY_BYTES = 640 * KB  # 128 KB PROM + 512 KB RAM [paper Sec. 2.2]
DATA_MEMORY_BYTES = 1 * MB  # [paper Sec. 2.2]


class CAB:
    """One Communication Accelerator Board."""

    def __init__(self, sim: Simulator, costs: CostModel, name: str):
        self.sim = sim
        self.costs = costs
        self.name = name
        self.stats = CounterScope()
        #: Optional repro.buf.accounting.CopyMeter (wired by NectarSystem):
        #: counts host-level byte copies on this node's data path.
        self.copy_meter = None

        self.cpu = CPU(
            sim,
            name=f"{name}.cpu",
            context_switch_ns=costs.cab_context_switch_ns,
            dispatch_ns=costs.cab_dispatch_ns,
            interrupt_entry_ns=costs.cab_interrupt_entry_ns,
            interrupt_exit_ns=costs.cab_interrupt_exit_ns,
            timer_handler_ns=costs.cab_timer_handler_ns,
        )
        self.program_mem = MemoryRegion(f"{name}.pmem", PROGRAM_MEMORY_BYTES)
        self.data_mem = MemoryRegion(f"{name}.dmem", DATA_MEMORY_BYTES)

        self.fiber_in = FiberIn(sim, costs.cab_fifo_bytes, name=f"{name}.fiber-in")
        self.fiber_out = FiberOut(sim, costs.cab_fifo_bytes, name=f"{name}.fiber-out")

        #: Installed by the datalink layer: an interrupt-handler generator
        #: factory invoked at start-of-packet with the arriving frame.  It
        #: must start a receive DMA (or discard the frame) before returning.
        self.rx_dispatch: Optional[Callable[[Frame], Generator]] = None

        self._tx_queue: Store = Store(sim, name=f"{name}.txq")
        # Per-frame names, built once.
        self._rx_programmed_name = f"{name}.rx-programmed"
        self._tx_track = f"{name}.dma-tx"
        self._rx_track = f"{name}.dma-rx"
        #: Pending while a start-of-packet handler decides a frame's fate;
        #: fires with the receive DMA's job, or None to discard the frame.
        self._rx_programmed: Optional[Event] = None
        sim.process(self._tx_dma_loop(), name=f"{name}.tx-dma")
        sim.process(self._rx_loop(), name=f"{name}.rx-ctl")

    # ------------------------------------------------------------- transmit

    def send_frame(self, frame: Frame) -> Generator:
        """Thread-context generator: seal the frame and hand it to TX DMA.

        Returns immediately after programming the DMA descriptor; the DMA
        streams the frame out while the CPU goes on to other work.  If the
        frame has ``on_dma_done``, a TX-complete interrupt invokes it once
        the frame has fully left CAB memory.
        """
        frame.created_ns = frame.created_ns or self.sim.now
        frame.seal()
        yield self.costs.cab_dma_setup_ns
        self._tx_queue.put(frame)
        self.stats.add("frames_sent")
        self.stats.add("bytes_sent", frame.size)

    def _tx_dma_loop(self) -> Generator:
        fifo = self.fiber_out.fifo
        queue = self._tx_queue
        dma_ns = self.costs.cab_dma_ns_per_byte
        tracer = self.sim.tracer
        while True:
            queued, frame = queue.try_get()
            if not queued:
                frame = yield queue.get()
            if tracer.sink is not None:
                tracer.begin("dma", "tx-frame", {"bytes": frame.size}, track=self._tx_track)
            for chunk in frame.chunks():
                wait = fifo.wait_space(chunk.length)
                if wait is not None:
                    yield wait
                yield chunk.length * dma_ns
                fifo.push(chunk)
            if tracer.sink is not None:
                tracer.end("dma", "tx-frame", track=self._tx_track)
            if tracer.profiler is not None:
                tracer.profiler.account(
                    f"{self.name}.dma", "dma", "tx", frame.size * dma_ns
                )
            if frame.on_dma_done is not None:
                self.cpu.post_interrupt(
                    self._tx_done_irq(frame), name="tx-complete"
                )

    def _tx_done_irq(self, frame: Frame) -> Generator:
        yield self.costs.cab_tx_complete_ns
        callback = frame.on_dma_done
        if callback is not None:
            frame.on_dma_done = None
            callback(frame)

    # -------------------------------------------------------------- receive

    def _rx_loop(self) -> Generator:
        """Receive frames one at a time: a start-of-packet interrupt each,
        then the receive DMA (or the discard sink) its handler programmed,
        run in line here."""
        fifo = self.fiber_in.fifo
        while True:
            wait = fifo.wait_data()
            if wait is not None:
                yield wait
            frame: Frame = fifo.peek().frame
            programmed = Event(self.sim, self._rx_programmed_name)
            self._rx_programmed = programmed
            self.cpu.post_interrupt(
                self._sop_irq(frame, programmed), name="start-of-packet"
            )
            job = yield programmed
            if job is None:
                yield from self._rx_sink(frame)
            else:
                yield from self._rx_dma(frame, *job)

    def _sop_irq(self, frame: Frame, programmed: Event) -> Generator:
        self.stats.add("frames_received")
        dispatch = self.rx_dispatch
        if dispatch is None:
            self.discard_rx(frame)
            return
            yield  # pragma: no cover - makes this a generator
        yield from dispatch(frame)
        if not programmed.triggered:
            raise CABError(
                f"{self.name}: rx dispatch finished without starting a "
                f"receive DMA or discarding frame #{frame.seqno}"
            )

    def start_rx_dma(
        self,
        frame: Frame,
        region: MemoryRegion,
        addr: int,
        header_bytes: int = 0,
        on_header: Optional[Callable[[Frame], Generator]] = None,
        on_complete: Optional[Callable[[Frame, bool], Generator]] = None,
    ) -> None:
        """Program the receive DMA to land ``frame`` at ``region[addr:]``.

        ``on_header`` is posted as an interrupt once ``header_bytes`` of the
        frame are in memory (the start-of-data upcall); ``on_complete`` is
        posted when the whole frame has landed, with the hardware CRC verdict.
        Callable from interrupt or thread context: it hands the job to the
        ``rx-ctl`` process, which runs the transfer.
        """
        self._program_rx((region, addr, header_bytes, on_header, on_complete))

    def discard_rx(self, frame: Frame) -> None:
        """Sink an unwanted frame (no buffer available, unknown type...)."""
        self._program_rx(None)
        self.stats.add("frames_discarded")

    def _program_rx(self, job: Optional[tuple]) -> None:
        programmed, self._rx_programmed = self._rx_programmed, None
        if programmed is None:
            raise CABError(f"{self.name}: receive DMA already active")
        programmed.succeed(job)

    def _rx_dma(
        self,
        frame: Frame,
        region: MemoryRegion,
        addr: int,
        header_bytes: int,
        on_header,
        on_complete,
    ) -> Generator:
        fifo = self.fiber_in.fifo
        dma_ns = self.costs.cab_dma_ns_per_byte
        consumed = 0
        header_posted = header_bytes <= 0
        tracer = self.sim.tracer
        if tracer.sink is not None:
            tracer.begin("dma", "rx-frame", {"bytes": frame.size}, track=self._rx_track)
        while True:
            chunk = fifo.take(dma_ns)
            if chunk.__class__ is Chunk:
                yield chunk.length * dma_ns
            else:
                chunk = yield chunk
            if chunk.frame is not frame:
                raise CABError(
                    f"{self.name}: rx DMA frame interleave (expected "
                    f"#{frame.seqno}, got #{chunk.frame.seqno})"
                )
            region.write(addr + chunk.offset, frame.chunk_bytes(chunk))
            consumed += chunk.length
            if not header_posted and consumed >= header_bytes:
                header_posted = True
                if on_header is not None:
                    self.cpu.post_interrupt(on_header(frame), name="start-of-data")
            if chunk.is_last:
                break
        if tracer.sink is not None:
            tracer.end("dma", "rx-frame", track=self._rx_track)
        if tracer.profiler is not None:
            tracer.profiler.account(f"{self.name}.dma", "dma", "rx", consumed * dma_ns)
        crc_ok = frame.crc_ok()
        if not crc_ok:
            self.stats.add("crc_errors")
        if on_complete is not None:
            self.cpu.post_interrupt(on_complete(frame, crc_ok), name="end-of-packet")
        # The frame has fully landed in CAB memory: this receive terminates
        # its journey, so drop the payload buffer's last reference.
        frame.release()

    def _rx_sink(self, frame: Frame) -> Generator:
        fifo = self.fiber_in.fifo
        while True:
            chunk = fifo.take(0)
            if chunk.__class__ is not Chunk:
                chunk = yield chunk
            if chunk.frame is not frame:
                raise CABError(f"{self.name}: rx sink frame interleave")
            if chunk.is_last:
                break
        frame.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CAB {self.name}>"
