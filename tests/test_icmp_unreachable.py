"""Tests for ICMP destination unreachable (port), RFC 792/1122 behaviour."""

import pytest

from repro.protocols.headers import (
    ICMP_CODE_PORT_UNREACHABLE,
    ICMP_ECHO_REQUEST,
    ICMPHeader,
    IPPROTO_ICMP,
    IPv4Header,
    UDPHeader,
)
from repro.system import NectarSystem
from repro.units import ms, seconds
from tests.test_leaks import heap_leaks


def rig():
    system = NectarSystem()
    hub = system.add_hub("hub0")
    a = system.add_node("cab-a", hub, 0)
    b = system.add_node("cab-b", hub, 1)
    return system, a, b


def test_udp_to_unbound_port_triggers_unreachable():
    system, a, b = rig()
    errors = []
    a.icmp.on_unreachable = lambda header, payload: errors.append((header, payload))

    def sender():
        yield from a.udp.send(4000, b.ip_address, 4999, b"is anyone there?")

    a.runtime.fork_application(sender(), "s")
    system.run(until=ms(20))
    assert b.runtime.stats.value("udp_no_port") == 1
    assert b.runtime.stats.value("icmp_unreachable_out") == 1
    assert a.runtime.stats.value("icmp_unreachable_in") == 1
    assert len(errors) == 1
    header, payload = errors[0]
    assert header.code == ICMP_CODE_PORT_UNREACHABLE
    # RFC 792: the error quotes the offending datagram's IP header + 8
    # bytes, enough to recover the original UDP ports.
    quoted_ip = IPv4Header.unpack(payload[: IPv4Header.SIZE])
    assert quoted_ip.dst == b.ip_address
    quoted_udp = UDPHeader.unpack(payload[IPv4Header.SIZE :])
    assert quoted_udp.src_port == 4000
    assert quoted_udp.dst_port == 4999


def test_bound_port_generates_no_error():
    system, a, b = rig()
    inbox = b.runtime.mailbox("inbox")
    b.udp.bind(4999, inbox)

    def sender():
        yield from a.udp.send(4000, b.ip_address, 4999, b"present!")

    a.runtime.fork_application(sender(), "s")
    system.run(until=ms(20))
    assert b.runtime.stats.value("icmp_unreachable_out") == 0
    assert len(inbox) == 1


def test_unreachable_storm_does_not_loop():
    """Errors about errors must not ping-pong forever."""
    system, a, b = rig()

    def sender():
        for _ in range(3):
            yield from a.udp.send(4000, b.ip_address, 4999, b"x" * 32)

    a.runtime.fork_application(sender(), "s")
    system.run(until=ms(50))
    # Exactly one unreachable per offending datagram; no amplification.
    assert b.runtime.stats.value("icmp_unreachable_out") == 3
    assert a.runtime.stats.value("icmp_unreachable_in") == 3
    assert a.runtime.stats.value("icmp_unreachable_out") == 0


def _ip(body: bytes, version: int = 4) -> bytes:
    """A 20-byte IP header for an ICMP packet carrying ``body``."""
    raw = bytearray(
        IPv4Header(
            src=0x0A000001, dst=0x0A000002, protocol=IPPROTO_ICMP,
            total_length=IPv4Header.SIZE + len(body),
        ).pack()
    )
    raw[0] = (version << 4) | 5
    return bytes(raw)


def _icmp(icmp_type: int, checksum_ok: bool = True) -> bytes:
    body = bytearray(ICMPHeader(icmp_type=icmp_type, identifier=7, sequence=1).pack())
    body.extend(b"payload!")
    checksum = ICMPHeader.compute_checksum(body)
    if not checksum_ok:
        checksum ^= 0x5A5A
    body[2:4] = checksum.to_bytes(2, "big")
    return bytes(body)


@pytest.mark.parametrize(
    "packet, counter",
    [
        (_ip(b"") + b"\x08\x00\x00", "icmp_malformed"),
        (_ip(_icmp(ICMP_ECHO_REQUEST), version=6) + _icmp(ICMP_ECHO_REQUEST), "icmp_malformed"),
        (_ip(_icmp(ICMP_ECHO_REQUEST)) + _icmp(ICMP_ECHO_REQUEST, checksum_ok=False),
         "icmp_bad_checksum"),
        (_ip(_icmp(42)) + _icmp(42), "icmp_unknown_type"),
    ],
    ids=["short", "bad-ip-header", "bad-checksum", "unknown-type"],
)
def test_rejected_input_counts_once_frees_and_stays_silent(packet, counter):
    """ICMP checks what reaches its mailbox: a rejected packet is counted
    once, freed, and never answered.  IP already drops a header it cannot
    parse, so the packet is put straight into ICMP's input mailbox, the
    whole receive interface between IP and ICMP."""
    system, _a, b = rig()
    system.run()
    stats = b.runtime.stats
    sent = b.cab.stats.value("frames_sent")

    def writer():
        box = b.icmp.input_mailbox
        msg = yield from box.begin_put(len(packet))
        msg.write(0, packet)
        yield from box.end_put(msg)

    b.runtime.fork_application(writer(), "w")
    system.run()
    assert stats.value(counter) == 1
    rejections = ["icmp_malformed", "icmp_bad_checksum", "icmp_unknown_type"]
    assert sum(stats.value(name) for name in rejections) == 1
    assert stats.value("icmp_echo_requests_in") == 0
    assert b.cab.stats.value("frames_sent") == sent
    assert heap_leaks(system) == []
