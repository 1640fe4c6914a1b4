"""The VME bus connecting a host to its CAB.

The VME bus is the host/CAB performance bottleneck in the paper (Sec. 6.3):
programmed I/O costs ~1 us per 32-bit access, and block (DMA) transfers run
at ~30 Mbit/s.  The bus is a single shared resource: every data transfer
holds it through :meth:`VMEBus.copy`, so concurrent transfers serialize and
the Figure 8 flattening emerges from contention rather than from a
hard-coded ceiling.  Cross-bus interrupts pay only their latency.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.cab.cpu import CPU, wait_sim_event
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

    def copy(self, cpu: CPU, nbytes: int) -> Generator:
        """Thread-context transfer of ``nbytes`` across the bus by ``cpu``.

        The one way anything holds the bus.  Programmed I/O below the DMA
        threshold keeps the CPU busy (~1 us per word); a block transfer at
        or above it pays the DMA setup and then sleeps the CPU while the
        bus DMA runs.
        """
        if nbytes < 0:
            raise ValueError(f"negative VME transfer size {nbytes}")
        if nbytes == 0:
            return
        yield from wait_sim_event(cpu, self._bus.acquire())
        kind = "dma" if nbytes >= self.costs.vme_dma_threshold_bytes else "pio"
        # The span opens only once the bus is held, so concurrent transfer
        # attempts serialize and the spans on this track nest correctly.
        tracer = self.tracer
        if tracer.sink is not None:
            tracer.begin("vme", kind, {"bytes": nbytes}, track=self.name)
        try:
            if kind == "dma":
                yield self.costs.vme_dma_setup_ns
                done = self.sim.timeout(self.costs.vme_dma_ns(nbytes))
                yield from wait_sim_event(cpu, done)
            else:
                yield self.costs.vme_pio_ns(nbytes)
            self.stats.add(f"{kind}_bytes", nbytes)
        finally:
            if tracer.sink is not None:
                tracer.end("vme", kind, track=self.name)
            self._bus.release()

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
