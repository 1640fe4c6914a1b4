"""IP on the CAB (paper Sec. 4.1).

Input processing happens at interrupt time.  The start-of-data upcall
performs the header sanity check (including the real header checksum) while
the rest of the packet is still arriving; the end-of-data upcall queues
fragments for reassembly and transfers complete datagrams to the input
mailbox of the appropriate higher-level protocol using the mailbox
``Enqueue`` operation, so no data is copied.

Output: higher protocols call :meth:`IPProtocol.output` with a header
*template* (a partially filled IP header), the message to send (laid out as
``[20 bytes of IP header space][transport header + payload]``), and a flag
saying whether the data area should be freed once sent.  IP fills in the
remaining header fields and hands the packet to the datalink layer,
fragmenting if it exceeds the MTU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Optional

from repro.errors import ProtocolError
from repro.protocols.addressing import NodeRegistry
from repro.protocols.datalink import Datalink, ProtocolBinding
from repro.protocols.headers import DL_TYPE_IP, DatalinkHeader, IPv4Header, IP_FLAG_MF
from repro.runtime.kernel import Runtime
from repro.runtime.mailbox import Mailbox, Message
from repro.units import ms, seconds

__all__ = ["IPProtocol"]

#: How long a partially reassembled datagram may wait for its fragments.
REASSEMBLY_TIMEOUT_NS = seconds(5)
#: Period of the IP slow timer that purges stale reassembly state.
SLOW_TIMER_PERIOD_NS = ms(500)


@dataclass
class _ReassemblyEntry:
    """Fragments of one datagram, keyed by (src, identification)."""

    fragments: list[tuple[int, Message, IPv4Header]] = field(default_factory=list)
    total_payload: Optional[int] = None
    arrived: int = 0
    started_ns: int = 0


#: IP input processing placement (the experiment proposed in paper Sec. 3.1:
#: "We will experiment with moving portions of it into high-priority
#: threads.  Although this will introduce additional context switching, the
#: CAB will spend less time with interrupts disabled").
INPUT_AT_INTERRUPT = "interrupt"
INPUT_IN_THREAD = "thread"


class IPProtocol:
    """The IP layer of one CAB."""

    def __init__(
        self,
        runtime: Runtime,
        datalink: Datalink,
        registry: NodeRegistry,
        input_mode: str = INPUT_AT_INTERRUPT,
    ):
        if input_mode not in (INPUT_AT_INTERRUPT, INPUT_IN_THREAD):
            raise ProtocolError(f"unknown IP input mode {input_mode!r}")
        self.input_mode = input_mode
        self.runtime = runtime
        self.costs = runtime.costs
        self.datalink = datalink
        self.registry = registry
        self.node_id = datalink.node_id
        self.address = registry.ip_of(self.node_id)
        self.input_mailbox = runtime.mailbox("ip-input")
        self._transports: Dict[int, Mailbox] = {}
        self._reassembly: Dict[tuple[int, int], _ReassemblyEntry] = {}
        self._reassembly_pending = runtime.condition("ip-reassembly-pending")
        self._reassembly_mutex = runtime.mutex("ip-reassembly")
        self._next_ident = 1
        self.stats = runtime.stats
        datalink.register(
            DL_TYPE_IP,
            ProtocolBinding(
                input_mailbox=self.input_mailbox,
                header_bytes=IPv4Header.SIZE,
                on_header=self._start_of_data,
                on_packet=self._end_of_data,
            ),
        )
        runtime.fork_system(self._slow_timer(), name="ip-slow-timer")
        if input_mode == INPUT_IN_THREAD:
            runtime.fork_system(self._input_thread(), name="ip-input")

    # ------------------------------------------------------------ registration

    def register_transport(self, protocol: int, mailbox: Mailbox) -> None:
        """Higher-level protocols provide an input mailbox to IP.

        That mailbox constitutes the entire receive interface between IP and
        the higher protocol (paper Sec. 4.1).
        """
        if protocol in self._transports:
            raise ProtocolError(f"IP protocol {protocol} already registered")
        self._transports[protocol] = mailbox

    # ------------------------------------------------------------------ output

    def output(
        self,
        template: IPv4Header,
        msg: Message,
        free_after: bool = True,
    ) -> Generator:
        """Thread-context IP_Output.

        ``msg`` must start with 20 bytes of IP header space.  The template's
        ``src``/``dst``/``protocol`` must be filled; IP completes the rest.
        """
        if msg.size < IPv4Header.SIZE:
            raise ProtocolError(f"message of {msg.size} bytes has no IP header room")
        yield self.costs.ip_output_ns
        if template.src == 0:
            template.src = self.address
        template.identification = self._next_ident
        self._next_ident = (self._next_ident + 1) & 0xFFFF
        dst_node = self.registry.node_for_ip(template.dst)

        payload_room = self.datalink.mtu - IPv4Header.SIZE
        payload_room -= payload_room % 8  # fragment offsets are 8-byte units
        payload_size = msg.size - IPv4Header.SIZE
        if msg.size <= self.datalink.mtu:
            template.total_length = msg.size
            template.flags = 0
            template.fragment_offset = 0
            msg.write(0, template.pack())
            self.stats.add("ip_packets_out")
            yield from self.datalink.send_message(dst_node, DL_TYPE_IP, msg, free_after)
            return
        yield from self._send_fragments(
            template, msg, dst_node, payload_room, payload_size, free_after
        )

    def _send_fragments(
        self,
        template: IPv4Header,
        msg: Message,
        dst_node: int,
        payload_room: int,
        payload_size: int,
        free_after: bool,
    ) -> Generator:
        """Split an oversized datagram into MTU-sized fragments."""
        offset = 0
        while offset < payload_size:
            piece = min(payload_room, payload_size - offset)
            last = offset + piece >= payload_size
            frag = yield from self.input_mailbox.begin_put(IPv4Header.SIZE + piece)
            data = msg.view(IPv4Header.SIZE + offset, piece)
            yield self.costs.cab_memcpy_ns(piece)
            frag.write(IPv4Header.SIZE, data)
            header = IPv4Header(
                src=template.src,
                dst=template.dst,
                protocol=template.protocol,
                total_length=IPv4Header.SIZE + piece,
                identification=template.identification,
                flags=0 if last else IP_FLAG_MF,
                fragment_offset=offset // 8,
                ttl=template.ttl,
            )
            frag.write(0, header.pack())
            self.stats.add("ip_fragments_out")
            yield from self.datalink.send_message(dst_node, DL_TYPE_IP, frag, True)
            offset += piece
        if free_after:
            msg.mailbox._release_storage(msg)
            self.runtime.wake_heap_waiters()

    # ------------------------------------------------------------------- input

    def _start_of_data(self, msg: Message, dl_header: DatalinkHeader) -> Generator:
        """Start-of-data upcall: sanity-check the IP header while the body
        is still streaming in (paper Sec. 4.1)."""
        yield self.costs.ip_input_ns
        if msg.size < DatalinkHeader.SIZE + IPv4Header.SIZE:
            self.stats.add("ip_bad_header")
            return
        raw = msg.view(DatalinkHeader.SIZE, IPv4Header.SIZE)
        try:
            header = IPv4Header.unpack(raw)
        except ProtocolError:
            self.stats.add("ip_bad_header")
            return
        if not header.header_checksum_ok(raw):
            self.stats.add("ip_bad_checksum")

    def _end_of_data(self, msg: Message, dl_header: DatalinkHeader) -> Generator:
        """End-of-data upcall: reassemble and dispatch (interrupt time)."""
        if msg.size < IPv4Header.SIZE:
            self.stats.add("ip_bad_header")
            yield from self.input_mailbox.iabort_put(msg)
            return
        raw = msg.view(0, IPv4Header.SIZE)
        try:
            header = IPv4Header.unpack(raw)
        except ProtocolError:
            self.stats.add("ip_bad_header")
            yield from self.input_mailbox.iabort_put(msg)
            return
        if not header.header_checksum_ok(raw):
            self.stats.add("ip_bad_checksum")
            yield from self.input_mailbox.iabort_put(msg)
            return
        if header.dst != self.address:
            self.stats.add("ip_not_ours")
            yield from self.input_mailbox.iabort_put(msg)
            return
        if self.input_mode == INPUT_IN_THREAD:
            # The Sec. 3.1 experiment: hand the packet to the IP input
            # thread instead of finishing at interrupt time.  Costs an
            # extra wakeup + context switch per packet but shortens the
            # interrupt-masked window.
            yield from self.input_mailbox.iend_put(msg)
            return
        if header.fragment_offset or header.more_fragments:
            yield from self._handle_fragment(msg, header)
            return
        self.stats.add("ip_packets_in")
        yield from self._dispatch(msg, header)

    def _input_thread(self) -> Generator:
        """Thread-mode IP input processing (Sec. 3.1 experiment)."""
        while True:
            msg = yield from self.input_mailbox.begin_get()
            raw = msg.view(0, IPv4Header.SIZE)
            header = IPv4Header.unpack(raw)
            if header.fragment_offset or header.more_fragments:
                yield from self._handle_fragment(msg, header)
                continue
            self.stats.add("ip_packets_in")
            yield from self._dispatch(msg, header)

    def _dispatch(self, msg: Message, header: IPv4Header) -> Generator:
        mailbox = self._transports.get(header.protocol)
        if mailbox is None:
            self.stats.add("ip_no_transport")
            yield from self.input_mailbox.iabort_put(msg)
            return
        # The datagram (IP header included) moves without copying.
        yield from self.input_mailbox.ienqueue(msg, mailbox)

    # ------------------------------------------------------------- reassembly

    def _handle_fragment(self, msg: Message, header: IPv4Header) -> Generator:
        yield self.costs.ip_reassembly_ns
        self.stats.add("ip_fragments_in")
        key = (header.src, header.identification)
        entry = self._reassembly.get(key)
        if entry is None:
            entry = _ReassemblyEntry(started_ns=self.runtime.sim.now)
            self._reassembly[key] = entry
            # Arm the slow timer (it parks while there is nothing to purge).
            self.runtime.ops.signal_nocost(self._reassembly_pending)
        payload_offset = header.fragment_offset * 8
        payload_len = header.total_length - IPv4Header.SIZE
        entry.fragments.append((payload_offset, msg, header))
        entry.arrived += payload_len
        if not header.more_fragments:
            entry.total_payload = payload_offset + payload_len
        if entry.total_payload is None or entry.arrived < entry.total_payload:
            return
        # All fragments are here: rebuild the datagram in a fresh buffer.
        del self._reassembly[key]
        total = IPv4Header.SIZE + entry.total_payload
        whole = yield from self.input_mailbox.ibegin_put(total)
        if whole is None:
            self.stats.add("ip_reassembly_no_buffer")
            for _offset, frag, _header in entry.fragments:
                yield from self.input_mailbox.iabort_put(frag)
            return
        yield self.costs.cab_memcpy_ns(entry.total_payload)
        for offset, frag, _frag_header in entry.fragments:
            frag_payload = frag.view(IPv4Header.SIZE)
            whole.write(IPv4Header.SIZE + offset, frag_payload)
            yield from self.input_mailbox.iabort_put(frag)
        rebuilt = IPv4Header(
            src=header.src,
            dst=header.dst,
            protocol=header.protocol,
            total_length=total,
            identification=header.identification,
            ttl=header.ttl,
        )
        whole.write(0, rebuilt.pack())
        self.stats.add("ip_reassembled")
        self.stats.add("ip_packets_in")
        yield from self._dispatch(whole, rebuilt)

    def _slow_timer(self) -> Generator:
        """Purge reassembly state that has waited too long for fragments.

        Parks on a condition while there is no reassembly in progress, so an
        idle CAB schedules no timer events at all.
        """
        ops = self.runtime.ops
        while True:
            if not self._reassembly:
                yield from ops.lock(self._reassembly_mutex)
                while not self._reassembly:
                    yield from ops.wait(self._reassembly_pending, self._reassembly_mutex)
                yield from ops.unlock(self._reassembly_mutex)
            yield from ops.sleep(SLOW_TIMER_PERIOD_NS)
            now = self.runtime.sim.now
            stale = [
                key
                for key, entry in self._reassembly.items()
                if now - entry.started_ns > REASSEMBLY_TIMEOUT_NS
            ]
            for key in stale:
                entry = self._reassembly.pop(key)
                self.stats.add("ip_reassembly_timeouts")
                for _offset, frag, _header in entry.fragments:
                    frag.mailbox._release_storage(frag)
                self.runtime.wake_heap_waiters()
