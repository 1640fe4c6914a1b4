"""The calibrated cost model.

Every timing constant in the simulation lives here, in one dataclass, so that
(a) the provenance of each number is documented, and (b) ablation benchmarks
can sweep a constant (e.g. VME bandwidth) without touching mechanism code.

Constants marked **[paper]** are stated directly in the SIGCOMM'90 paper;
constants marked **[derived]** are calibrated so that the paper's end-to-end
measurements (Table 1, Figures 6-8) are reproduced in shape; constants marked
**[era]** are plausible values for 1990-era hardware chosen where the paper is
silent.

All times are integer nanoseconds unless the field name says otherwise.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.units import us

__all__ = ["CostModel", "DEFAULT_COSTS"]


@dataclass
class CostModel:
    """All timing constants for the simulated Nectar system."""

    # ------------------------------------------------------------------ network
    #: Fiber line rate. [paper Sec. 2.1: "fiber-optic lines operate at 100
    #: Mbit/sec"]
    fiber_mbps: float = 100.0
    #: One-way light propagation per fiber segment (tens of metres of fiber).
    #: [era]
    fiber_propagation_ns: int = 250
    #: HUB connection setup + first byte through a single HUB.
    #: [paper Sec. 2.1: 700 nanoseconds]
    hub_setup_ns: int = 700
    #: Extra cut-through forwarding cost per additional HUB hop. [derived]
    hub_hop_ns: int = 500

    # ------------------------------------------------------------------ CAB CPU
    #: Thread context switch (SPARC register-window save/restore).
    #: [paper Sec. 3.1: "20 usec is typical"]
    cab_context_switch_ns: int = us(20)
    #: Interrupt entry (trap, save state, dispatch to handler). [era]
    cab_interrupt_entry_ns: int = us(4)
    #: Interrupt exit (restore, return from trap). [era]
    cab_interrupt_exit_ns: int = us(2)
    #: Scheduler dispatch decision when picking the next runnable thread
    #: (excluding the register-window switch itself). [derived]
    cab_dispatch_ns: int = us(3)
    #: Timer interrupt handler body (wake the thread whose timer expired).
    #: [era]
    cab_timer_handler_ns: int = 500
    #: CPU-performed copy within CAB memory (35 ns static RAM, word loop).
    #: [paper Sec. 2.2 gives the SRAM speed; loop overhead derived]
    cab_memcpy_ns_per_byte: int = 50
    #: Software Internet checksum on the CAB CPU.  This single constant is
    #: what separates TCP/IP from RMP in Figure 7. [derived: ~2.5 cycles/byte
    #: at 16.5 MHz]
    cab_checksum_ns_per_byte: int = 150

    # ------------------------------------------------------------- CAB hardware
    #: DMA engine streaming rate between CAB data memory and the fiber FIFOs
    #: (faster than the fiber so the fiber is the bottleneck). [era]
    cab_dma_ns_per_byte: int = 25
    #: CPU cost to program one DMA transfer descriptor. [era]
    cab_dma_setup_ns: int = us(3)
    #: TX-complete interrupt handler body (acknowledge the DMA channel). [era]
    cab_tx_complete_ns: int = us(1)
    #: Input/output FIFO capacity in bytes. [era: board FIFOs of the period]
    cab_fifo_bytes: int = 8192

    # --------------------------------------------------------------------- VME
    #: One programmed-I/O access (32-bit word) across the VME bus, host side.
    #: [paper Sec. 6.1: "each read or write over the VME bus takes about
    #: 1 usec"]
    vme_word_ns: int = 1000
    #: Bytes moved per programmed-I/O access.
    vme_word_bytes: int = 4
    #: Block-transfer (DMA) bandwidth of the VME bus.
    #: [paper Sec. 6.3: "about 30 Mbit/sec"]
    vme_dma_mbps: float = 30.0
    #: CPU cost to set up one VME DMA transfer. [era]
    vme_dma_setup_ns: int = us(10)
    #: Minimum message size (bytes) above which the host/CAB interface uses
    #: VME block transfer instead of programmed I/O. [derived]
    vme_dma_threshold_bytes: int = 256
    #: Latency for a cross-bus interrupt (host->CAB or CAB->host) to reach
    #: the other side's interrupt controller. [era]
    vme_interrupt_ns: int = us(2)

    # ------------------------------------------------------------ CAB runtime
    #: Mutex acquire/release (uncontended). [derived]
    rt_lock_ns: int = us(1)
    #: Condition signal (no wakeup). [derived]
    rt_signal_ns: int = us(2)
    #: Condition wait bookkeeping before blocking. [derived]
    rt_wait_ns: int = us(2)
    #: Thread fork. [derived]
    rt_fork_ns: int = us(30)
    #: Heap allocate / free from the shared buffer heap. [derived]
    rt_heap_alloc_ns: int = us(5)
    rt_heap_free_ns: int = us(4)
    #: Fast path when a mailbox's cached small buffer is used. [derived,
    #: paper Sec. 3.3 "each mailbox caches a small buffer"]
    rt_cached_buffer_ns: int = us(1)
    #: Mailbox operations, CAB-thread caller. [derived so that Fig. 6's
    #: breakdown lands near the paper's proportions]
    rt_begin_put_ns: int = us(6)
    rt_end_put_ns: int = us(4)
    rt_begin_get_ns: int = us(5)
    rt_end_get_ns: int = us(4)
    rt_enqueue_ns: int = us(4)
    #: Reader-upcall dispatch from End_Put. [derived]
    rt_upcall_ns: int = us(3)
    #: Sync operations (Sec. 3.4). [derived]
    rt_sync_op_ns: int = us(2)
    #: Appending an entry to a signal queue + ringing the doorbell. [derived]
    rt_signal_queue_ns: int = us(3)

    # ----------------------------------------------------------- protocol CPU
    #: Datalink send-side framing and header build. [derived]
    dl_send_ns: int = us(8)
    #: Datalink start-of-packet interrupt handler body. [derived]
    dl_sop_handler_ns: int = us(6)
    #: Datalink end-of-packet handler body. [derived]
    dl_eop_handler_ns: int = us(4)
    #: IP_Output: fill header template, route lookup, hand to datalink.
    ip_output_ns: int = us(8)
    #: IP input sanity check incl. 20-byte header checksum (start-of-data
    #: upcall). [derived]
    ip_input_ns: int = us(7)
    #: IP reassembly bookkeeping per fragment. [derived]
    ip_reassembly_ns: int = us(10)
    #: UDP per-packet processing (excluding payload checksum). [derived]
    udp_input_ns: int = us(8)
    udp_output_ns: int = us(8)
    #: TCP per-segment processing (excluding payload checksum): header parse,
    #: sequence bookkeeping, window update, timer work. [derived]
    tcp_input_ns: int = us(20)
    tcp_output_ns: int = us(18)
    #: ICMP upcall-body processing. [derived]
    icmp_input_ns: int = us(6)
    #: Nectar-specific transports, per message. [derived]
    nectar_datagram_ns: int = us(12)
    nectar_rmp_ns: int = us(10)
    nectar_reqresp_ns: int = us(12)
    #: NMP multicast per-message processing (DATA/NACK/repair FSM steps)
    #: and collective FSM steps (arrive/release hops). [derived]
    nectar_nmp_ns: int = us(10)
    nectar_coll_ns: int = us(6)

    # ----------------------------------------------------------------- host CPU
    #: Host process context switch (UNIX). [era]
    host_context_switch_ns: int = us(80)
    #: System call entry/exit. [era]
    host_syscall_ns: int = us(25)
    #: Host interrupt service overhead (trap + driver prologue). [era]
    host_interrupt_ns: int = us(30)
    #: Timer interrupt handler body on the host CPU. [era]
    host_timer_handler_ns: int = 500
    #: Host memory copy. [era]
    host_memcpy_ns_per_byte: int = 40
    #: Host software checksum. [era]
    host_checksum_ns_per_byte: int = 100
    #: Host-side CPU work per mailbox operation (pointer/descriptor work,
    #: excluding the VME accesses which are charged separately). [derived]
    host_mailbox_op_ns: int = us(3)
    #: Poll-loop iteration period when a host process spins on a host
    #: condition variable (one VME read + loop overhead). [paper Sec. 3.2
    #: polling; period derived from the 1 usec VME read]
    host_poll_interval_ns: int = us(4)
    #: Host kernel protocol processing per packet in network-device mode
    #: (BSD mbuf chain walk, socket layer), send side and receive side.
    #: [derived so netdev mode lands near the paper's 6.4 Mbit/s]
    host_stack_send_ns: int = us(550)
    host_stack_recv_ns: int = us(500)
    #: Driver/server handshake per packet in network-device mode. [derived]
    netdev_handshake_ns: int = us(60)

    # ---------------------------------------------------------------- Ethernet
    #: Ethernet line rate (the Fig. 8 baseline). [paper Sec. 6.3]
    ethernet_mbps: float = 10.0
    #: On-board Ethernet interface per-packet cost (bypasses the VME bus).
    #: [derived so Ethernet lands near the paper's 7.2 Mbit/s]
    ethernet_per_packet_ns: int = us(120)
    #: Ethernet maximum payload. [standard]
    ethernet_mtu: int = 1500

    # -------------------------------------------------------------- derived API

    @property
    def fiber_ns_per_byte(self) -> float:
        return 8_000.0 / self.fiber_mbps

    @property
    def vme_dma_ns_per_byte(self) -> float:
        return 8_000.0 / self.vme_dma_mbps

    @property
    def ethernet_ns_per_byte(self) -> float:
        return 8_000.0 / self.ethernet_mbps

    def fiber_tx_ns(self, nbytes: int) -> int:
        """Serialization time of nbytes onto the fiber."""
        return int(round(nbytes * self.fiber_ns_per_byte))

    def vme_pio_ns(self, nbytes: int) -> int:
        """Programmed-I/O time to move nbytes across the VME bus."""
        words = (nbytes + self.vme_word_bytes - 1) // self.vme_word_bytes
        return words * self.vme_word_ns

    def vme_dma_ns(self, nbytes: int) -> int:
        """Block-transfer time to move nbytes across the VME bus."""
        return int(round(nbytes * self.vme_dma_ns_per_byte))

    def cab_checksum_ns(self, nbytes: int) -> int:
        """Software checksum time for nbytes on the CAB CPU."""
        return nbytes * self.cab_checksum_ns_per_byte

    def host_checksum_ns(self, nbytes: int) -> int:
        """Software checksum time for nbytes on the host CPU."""
        return nbytes * self.host_checksum_ns_per_byte

    def cab_memcpy_ns(self, nbytes: int) -> int:
        """CPU copy time for nbytes within CAB memory."""
        return nbytes * self.cab_memcpy_ns_per_byte

    def host_memcpy_ns(self, nbytes: int) -> int:
        """CPU copy time for nbytes within host memory."""
        return nbytes * self.host_memcpy_ns_per_byte

    def copy(self, **overrides) -> "CostModel":
        """A modified copy, for ablation sweeps."""
        return dataclasses.replace(self, **overrides)


#: The default, paper-calibrated cost model.
DEFAULT_COSTS = CostModel()
