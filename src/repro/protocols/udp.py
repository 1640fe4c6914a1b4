"""UDP on the CAB, with its own server thread (paper Sec. 4.1).

The UDP server thread blocks on a ``Begin_Get`` of its input mailbox (which
IP fills via Enqueue), verifies the real checksum, strips the headers in
place, and transfers the payload to the bound user mailbox — again with
Enqueue, so the data is never copied between receipt and presentation.
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.errors import ProtocolError
from repro.protocols.headers import IPPROTO_UDP, IPv4Header, UDPHeader
from repro.protocols.ip import IPProtocol
from repro.runtime.kernel import Runtime
from repro.runtime.mailbox import Mailbox, Message

__all__ = ["UDPProtocol"]


class UDPProtocol:
    """The UDP layer of one CAB."""

    def __init__(self, runtime: Runtime, ip: IPProtocol):
        self.runtime = runtime
        self.costs = runtime.costs
        self.ip = ip
        #: Set by the stack builder so unbound ports answer with ICMP
        #: destination unreachable (RFC 1122 behaviour).
        self.icmp = None
        self.input_mailbox = runtime.mailbox("udp-input")
        ip.register_transport(IPPROTO_UDP, self.input_mailbox)
        self._ports: Dict[int, Mailbox] = {}
        self.stats = runtime.stats
        runtime.fork_system(self._server_thread(), name="udp-input")

    # -- binding -----------------------------------------------------------------

    def bind(self, port: int, mailbox: Mailbox) -> None:
        """Deliver datagrams addressed to ``port`` into ``mailbox``."""
        if not 0 < port <= 0xFFFF:
            raise ProtocolError(f"bad UDP port {port}")
        if port in self._ports:
            raise ProtocolError(f"UDP port {port} already bound")
        self._ports[port] = mailbox

    # -- sending ---------------------------------------------------------------

    def send(
        self,
        src_port: int,
        dst_ip: int,
        dst_port: int,
        data: bytes,
    ) -> Generator:
        """Thread-context: send one datagram built from ``data``."""
        headers = IPv4Header.SIZE + UDPHeader.SIZE
        msg = yield from self.input_mailbox.begin_put(headers + len(data))
        yield self.costs.cab_memcpy_ns(len(data))
        msg.write(headers, data)
        yield from self.send_message(src_port, dst_ip, dst_port, msg)

    def send_message(
        self, src_port: int, dst_ip: int, dst_port: int, msg: Message
    ) -> Generator:
        """Thread-context: send a pre-built message.

        ``msg`` must be laid out as ``[IP room][UDP room][payload]``; the
        payload must already be in place.
        """
        yield self.costs.udp_output_ns
        udp_length = msg.size - IPv4Header.SIZE
        header = UDPHeader(
            src_port=src_port, dst_port=dst_port, length=udp_length, checksum=0
        )
        msg.write(IPv4Header.SIZE, header.pack())
        segment = msg.view(IPv4Header.SIZE)
        yield self.costs.cab_checksum_ns(len(segment))
        checksum = UDPHeader.compute_checksum(self.ip.address, dst_ip, segment)
        msg.write(IPv4Header.SIZE + 6, checksum.to_bytes(2, "big"))
        template = IPv4Header(src=0, dst=dst_ip, protocol=IPPROTO_UDP)
        self.stats.add("udp_out")
        yield from self.ip.output(template, msg, free_after=True)

    # -- the server thread --------------------------------------------------------

    def _server_thread(self) -> Generator:
        while True:
            msg = yield from self.input_mailbox.begin_get()
            yield from self._input(msg)

    def _input(self, msg: Message) -> Generator:
        yield self.costs.udp_input_ns
        if msg.size < IPv4Header.SIZE + UDPHeader.SIZE:
            self.stats.add("udp_malformed")
            yield from self.input_mailbox.end_get(msg)
            return
        try:
            ip_header = IPv4Header.unpack(msg.view(0, IPv4Header.SIZE))
            udp_header = UDPHeader.unpack(
                msg.view(IPv4Header.SIZE, UDPHeader.SIZE)
            )
        except ProtocolError:
            self.stats.add("udp_malformed")
            yield from self.input_mailbox.end_get(msg)
            return
        if udp_header.length != msg.size - IPv4Header.SIZE:
            self.stats.add("udp_bad_length")
            yield from self.input_mailbox.end_get(msg)
            return
        # RFC 768: a zero checksum field means the sender computed none.
        if udp_header.checksum != 0:
            segment = msg.view(IPv4Header.SIZE)
            yield self.costs.cab_checksum_ns(len(segment))
            partial = UDPHeader.compute_checksum(ip_header.src, ip_header.dst, segment)
            # Summing a segment with a valid embedded checksum yields 0
            # (0xFFFF before inversion).
            if partial not in (0, 0xFFFF):
                self.stats.add("udp_bad_checksum")
                yield from self.input_mailbox.end_get(msg)
                return
        user_mailbox = self._ports.get(udp_header.dst_port)
        if user_mailbox is None:
            self.stats.add("udp_no_port")
            original = msg.read(0, min(msg.size, IPv4Header.SIZE + 8))
            yield from self.input_mailbox.end_get(msg)
            if self.icmp is not None:
                yield from self.icmp.send_port_unreachable(ip_header.src, original)
            return
        # Strip headers in place and hand the payload over without a copy.
        msg.trim_front(IPv4Header.SIZE + UDPHeader.SIZE)
        self.stats.add("udp_in")
        yield from self.input_mailbox.enqueue(msg, user_mailbox)
