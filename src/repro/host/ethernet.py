"""The Ethernet baseline (paper Sec. 6.3).

"The same hosts can do better using Ethernet — achieving 7.2 Mbit/sec —
because the on-board Ethernet interfaces bypass the VME bus."  This module
models exactly that: a 10 Mbit/s shared segment with on-board interfaces
whose per-packet driver cost is small and whose data movement does not touch
the VME bus (the NIC DMAs from host memory while the CPU is free).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generator

from repro.cab.cpu import Block, WaitToken, wait_sim_event
from repro.errors import ConfigurationError
from repro.host.machine import Host
from repro.model.costs import CostModel
from repro.sim.core import Simulator
from repro.sim.primitives import Resource, Store
from repro.telemetry.metrics import CounterScope

__all__ = ["EthernetNIC", "EthernetSegment"]

_ETH_OVERHEAD_BYTES = 18  # header + FCS


class EthernetSegment:
    """One shared 10 Mbit/s Ethernet segment."""

    def __init__(self, sim: Simulator, costs: CostModel, name: str = "ether0"):
        self.sim = sim
        self.costs = costs
        self.name = name
        self.wire = Resource(sim, slots=1, name=f"{name}.wire")
        self.nics: Dict[str, "EthernetNIC"] = {}
        self.stats = CounterScope()

    def attach(self, nic: "EthernetNIC") -> None:
        """Register a NIC on this segment."""
        if nic.host.name in self.nics:
            raise ConfigurationError(
                f"{self.name}: host {nic.host.name!r} already attached"
            )
        registry = nic.host.stats.registry
        if registry is not None and self.stats.registry is None:
            # The segment is built from (sim, costs) alone; its first NIC's
            # host says which system's store it counts into.
            registry.mount(self.name, self.stats)
        self.nics[nic.host.name] = nic


class EthernetNIC:
    """An on-board Ethernet interface of one host."""

    def __init__(self, host: Host, segment: EthernetSegment):
        self.host = host
        self.segment = segment
        self.costs = segment.costs
        self.sim = segment.sim
        self.mtu = segment.costs.ethernet_mtu
        self._rx: Deque[bytes] = deque()
        self._rx_waiters: Deque[WaitToken] = deque()
        self._tx: Store = Store(segment.sim, name=f"{host.name}.eth-tx")
        segment.attach(self)
        segment.sim.process(self._tx_loop(), name=f"{host.name}.eth-tx")

    # -- host-process API -----------------------------------------------------

    def send(self, dst: str, packet: bytes) -> Generator:
        """Queue a packet for transmission (host process context).

        Charges the driver's per-packet cost; the NIC then DMAs the packet
        from host memory and serializes it onto the wire on its own — the
        host CPU is NOT involved (no VME crossing).
        """
        if len(packet) > self.mtu:
            raise ConfigurationError(
                f"packet of {len(packet)} bytes exceeds Ethernet MTU {self.mtu}"
            )
        if dst not in self.segment.nics:
            raise ConfigurationError(f"no host {dst!r} on segment {self.segment.name}")
        yield self.costs.ethernet_per_packet_ns
        self._tx.put((dst, bytes(packet)))
        self.segment.stats.add("packets_sent")

    def recv(self) -> Generator:
        """Next received packet (host process context, blocks)."""
        while not self._rx:
            token = WaitToken(name=f"{self.host.name}.eth-rx")
            self._rx_waiters.append(token)
            yield Block(token)
        return self._rx.popleft()

    # -- the interface hardware ------------------------------------------------

    def _tx_loop(self) -> Generator:
        wire_ns_per_byte = self.costs.ethernet_ns_per_byte
        while True:
            dst, packet = yield self._tx.get()
            yield self.segment.wire.acquire()
            try:
                wire_bytes = len(packet) + _ETH_OVERHEAD_BYTES
                yield int(round(wire_bytes * wire_ns_per_byte))
            finally:
                self.segment.wire.release()
            self.segment.nics[dst]._deliver(packet)
            self.segment.stats.add("bytes_moved", len(packet))

    def _deliver(self, packet: bytes) -> None:
        """Receive interrupt on the destination host."""
        self._rx.append(packet)
        self.host.cpu.post_interrupt(self._rx_interrupt(), name="ether-rx")

    def _rx_interrupt(self) -> Generator:
        yield self.costs.host_interrupt_ns
        while self._rx_waiters:
            token = self._rx_waiters.popleft()
            if token.cancelled or token.fired:
                continue
            self.host.cpu.wake(token)
            break
