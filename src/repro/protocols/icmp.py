"""ICMP on the CAB, implemented as a mailbox reader upcall (paper Sec. 4.1).

"In our current system, ICMP is implemented as a mailbox upcall, while UDP
and TCP each have their own server threads."  The upcall fires whenever IP
enqueues an ICMP datagram into the ICMP input mailbox — at interrupt time —
and answers echo requests on the spot.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.errors import ProtocolError
from repro.protocols.headers import (
    ICMP_CODE_PORT_UNREACHABLE,
    ICMP_DEST_UNREACHABLE,
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    ICMPHeader,
    IPPROTO_ICMP,
    IPv4Header,
)
from repro.protocols.ip import IPProtocol
from repro.runtime.kernel import Runtime
from repro.runtime.mailbox import Mailbox, Message

__all__ = ["ICMPProtocol"]


class ICMPProtocol:
    """Echo (ping) service, processed entirely at interrupt time."""

    def __init__(self, runtime: Runtime, ip: IPProtocol):
        self.runtime = runtime
        self.costs = runtime.costs
        self.ip = ip
        self.input_mailbox = runtime.mailbox("icmp-input")
        self.input_mailbox.reader_upcall = self._upcall
        ip.register_transport(IPPROTO_ICMP, self.input_mailbox)
        self.stats = runtime.stats
        #: Optional hook observing echo replies (used by ping clients).
        self.on_echo_reply: Optional[Callable[[ICMPHeader, bytes], None]] = None
        #: Optional hook observing destination-unreachable errors.
        self.on_unreachable: Optional[Callable[[ICMPHeader, bytes], None]] = None

    # -- sending ---------------------------------------------------------------

    def send_echo_request(
        self, dst_ip: int, identifier: int, sequence: int, payload: bytes = b""
    ) -> Generator:
        """Thread-context: emit one echo request."""
        yield from self._send_echo(
            dst_ip, ICMP_ECHO_REQUEST, identifier, sequence, payload
        )
        self.stats.add("icmp_echo_requests_out")

    def _send_echo(
        self, dst_ip: int, icmp_type: int, identifier: int, sequence: int, payload: bytes
    ) -> Generator:
        size = IPv4Header.SIZE + ICMPHeader.SIZE + len(payload)
        msg = yield from self.input_mailbox.begin_put(size)
        header = ICMPHeader(
            icmp_type=icmp_type, identifier=identifier, sequence=sequence
        )
        body = bytearray(header.pack())
        body.extend(payload)
        checksum = ICMPHeader.compute_checksum(body)
        body[2:4] = checksum.to_bytes(2, "big")
        yield self.costs.cab_checksum_ns(len(body))
        yield self.costs.cab_memcpy_ns(len(body))
        msg.write(IPv4Header.SIZE, body)
        template = IPv4Header(src=0, dst=dst_ip, protocol=IPPROTO_ICMP)
        yield from self.ip.output(template, msg, free_after=True)

    def send_port_unreachable(self, dst_ip: int, original: bytes) -> Generator:
        """ICMP destination unreachable (port), quoting the original
        datagram's IP header + 8 bytes, as RFC 792 prescribes.

        Interrupt-safe (uses only non-blocking operations).
        """
        quote = original[: IPv4Header.SIZE + 8]
        size = IPv4Header.SIZE + ICMPHeader.SIZE + len(quote)
        msg = yield from self.input_mailbox.ibegin_put(size)
        if msg is None:
            self.stats.add("icmp_reply_no_buffer")
            return
        header = ICMPHeader(
            icmp_type=ICMP_DEST_UNREACHABLE, code=ICMP_CODE_PORT_UNREACHABLE
        )
        body = bytearray(header.pack())
        body.extend(quote)
        checksum = ICMPHeader.compute_checksum(body)
        body[2:4] = checksum.to_bytes(2, "big")
        yield self.costs.cab_checksum_ns(len(body))
        yield self.costs.cab_memcpy_ns(len(body))
        msg.write(IPv4Header.SIZE, body)
        template = IPv4Header(src=0, dst=dst_ip, protocol=IPPROTO_ICMP)
        yield from self.ip.output(template, msg, free_after=True)
        self.stats.add("icmp_unreachable_out")

    # -- receiving (interrupt context) -------------------------------------------

    def _upcall(self, mailbox: Mailbox) -> Generator:
        msg = yield from mailbox.ibegin_get()
        if msg is None:
            return
        yield self.costs.icmp_input_ns
        if msg.size < IPv4Header.SIZE + ICMPHeader.SIZE:
            self.stats.add("icmp_malformed")
            yield from mailbox.iend_get(msg)
            return
        try:
            ip_header = IPv4Header.unpack(msg.view(0, IPv4Header.SIZE))
            # The body escapes the message's lifetime (echo payloads are
            # re-sent after iend_get frees this buffer): keep the copy.
            body = msg.read(IPv4Header.SIZE)
            icmp = ICMPHeader.unpack(body)
        except ProtocolError:
            self.stats.add("icmp_malformed")
            yield from mailbox.iend_get(msg)
            return
        if ICMPHeader.compute_checksum(body) != 0:
            self.stats.add("icmp_bad_checksum")
            yield from mailbox.iend_get(msg)
            return
        payload = body[ICMPHeader.SIZE :]
        if icmp.icmp_type == ICMP_ECHO_REQUEST:
            self.stats.add("icmp_echo_requests_in")
            yield from self._reply(ip_header.src, icmp, payload)
        elif icmp.icmp_type == ICMP_ECHO_REPLY:
            self.stats.add("icmp_echo_replies_in")
            if self.on_echo_reply is not None:
                self.on_echo_reply(icmp, payload)
        elif icmp.icmp_type == ICMP_DEST_UNREACHABLE:
            self.stats.add("icmp_unreachable_in")
            if self.on_unreachable is not None:
                self.on_unreachable(icmp, payload)
        else:
            self.stats.add("icmp_unknown_type")
        yield from mailbox.iend_get(msg)

    def _reply(self, dst_ip: int, request: ICMPHeader, payload: bytes) -> Generator:
        """Answer an echo request immediately, still at interrupt time."""
        size = IPv4Header.SIZE + ICMPHeader.SIZE + len(payload)
        msg = yield from self.input_mailbox.ibegin_put(size)
        if msg is None:
            self.stats.add("icmp_reply_no_buffer")
            return
        header = ICMPHeader(
            icmp_type=ICMP_ECHO_REPLY,
            identifier=request.identifier,
            sequence=request.sequence,
        )
        body = bytearray(header.pack())
        body.extend(payload)
        checksum = ICMPHeader.compute_checksum(body)
        body[2:4] = checksum.to_bytes(2, "big")
        yield self.costs.cab_checksum_ns(len(body))
        yield self.costs.cab_memcpy_ns(len(body))
        msg.write(IPv4Header.SIZE, body)
        template = IPv4Header(src=0, dst=dst_ip, protocol=IPPROTO_ICMP)
        yield from self.ip.output(template, msg, free_after=True)
        self.stats.add("icmp_echo_replies_out")
