"""The VME bus connecting a host to its CAB.

The VME bus is the host/CAB performance bottleneck in the paper (Sec. 6.3):
programmed I/O costs ~1 us per 32-bit access, and block (DMA) transfers run
at ~30 Mbit/s.  The bus is a single shared resource — programmed I/O from the
host, DMA transfers, and cross-bus interrupts all contend for it — so the
Figure 8 flattening emerges from contention rather than from a hard-coded
ceiling.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.model.costs import CostModel
from repro.sim.core import Simulator
from repro.sim.primitives import Resource
from repro.telemetry.metrics import CounterScope

__all__ = ["VMEBus"]


class VMEBus:
    """One VME backplane segment shared by a host and its CAB."""

    def __init__(self, sim: Simulator, costs: CostModel, name: str = "vme"):
        self.sim = sim
        self.costs = costs
        self.name = name
        self._bus = Resource(sim, slots=1, name=f"{name}.bus")
        self.stats = CounterScope()
        #: The simulation's tracer, for bus-occupancy spans.
        self.tracer = sim.tracer

    # -- transfers -----------------------------------------------------------

    def pio(self, nbytes: int) -> Generator:
        """Programmed-I/O transfer of ``nbytes`` (word-at-a-time).

        A generator to be driven with ``yield from`` by a simulation process
        (or wrapped in a CPU compute by callers that model the CPU being
        busy — PIO *does* occupy the issuing CPU).
        """
        yield from self._hold("pio", nbytes, self.costs.vme_pio_ns)

    def dma(self, nbytes: int) -> Generator:
        """Block transfer of ``nbytes`` at the VME DMA rate."""
        yield from self._hold("dma", nbytes, self.costs.vme_dma_ns)

    def _hold(self, kind: str, nbytes: int, cost_ns: Callable[[int], int]) -> Generator:
        """Hold the bus for one ``kind`` transfer of ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"negative {kind.upper()} size {nbytes}")
        yield self._bus.acquire()
        # The span opens only once the bus is held, so concurrent transfer
        # attempts serialize and the spans on this track nest correctly.
        tracer = self.tracer
        if tracer.sink is not None:
            tracer.begin("vme", kind, {"bytes": nbytes}, track=self.name)
        try:
            yield cost_ns(nbytes)
            self.stats.add(f"{kind}_bytes", nbytes)
            self.stats.add(f"{kind}_transfers")
        finally:
            if tracer.sink is not None:
                tracer.end("vme", kind, track=self.name)
            self._bus.release()

    def transfer(self, nbytes: int) -> Generator:
        """PIO for small transfers, DMA above the threshold (plus setup)."""
        if nbytes >= self.costs.vme_dma_threshold_bytes:
            yield self.costs.vme_dma_setup_ns
            yield from self.dma(nbytes)
        else:
            yield from self.pio(nbytes)

    # -- interrupts ------------------------------------------------------------

    def post_interrupt(self, deliver: Callable[[], None]) -> None:
        """Deliver a cross-bus interrupt after the bus interrupt latency.

        ``deliver`` runs in event context on the receiving side (it should
        post to that side's interrupt controller).
        """
        event = self.sim.event(name=f"{self.name}.irq")
        event.callbacks.append(lambda _ev: deliver())
        event.succeed(delay=self.costs.vme_interrupt_ns)
        self.stats.add("interrupts")

    @property
    def busy(self) -> bool:
        return self._bus.in_use > 0

    @property
    def bus(self) -> Resource:
        """The underlying arbitration resource (for CPU-context callers)."""
        return self._bus
