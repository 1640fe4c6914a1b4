"""Header codec tests, including hypothesis round-trip properties."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.protocols.checksum import (
    checksum_partial,
    internet_checksum,
    verify_checksum,
)
from repro.protocols.headers import (
    DatalinkHeader,
    ICMPHeader,
    IPv4Header,
    NectarTransportHeader,
    TCPHeader,
    UDPHeader,
)


class TestChecksum:
    def test_known_vector(self):
        # RFC 1071 example data.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0xFFFF - ((0x0001 + 0xF203 + 0xF4F5 + 0xF6F7) % 0xFFFF)

    def test_verify_roundtrip(self):
        data = b"\x12\x34\x56\x78\x9a\xbc"
        checksum = internet_checksum(data + b"\x00\x00")
        assert verify_checksum(data + checksum.to_bytes(2, "big"))

    def test_odd_length_handled(self):
        assert internet_checksum(b"\xff") == internet_checksum(b"\xff\x00")

    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_checksum_in_range(self, data):
        value = internet_checksum(data)
        assert 0 <= value <= 0xFFFF

    @given(st.binary(min_size=2, max_size=100).filter(lambda b: len(b) % 2 == 0))
    @settings(max_examples=100, deadline=None)
    def test_append_checksum_verifies(self, data):
        # Word-aligned data: appending the checksum makes the block sum to 0.
        checksum = internet_checksum(data)
        assert internet_checksum(data + checksum.to_bytes(2, "big")) in (0, 0xFFFF)


def _loop_checksum_partial(data: bytes, initial: int = 0) -> int:
    """RFC 1071's word-at-a-time loop, frozen: the oracle.

    It defines what ``checksum_partial`` must return for every input, the
    0 / 0xFFFF representations included.
    """
    total = initial
    length = len(data)
    for index in range(0, length - 1, 2):
        total += (data[index] << 8) | data[index + 1]
    if length % 2:
        total += data[-1] << 8
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def _loop_internet_checksum(data: bytes, initial: int = 0) -> int:
    return (~_loop_checksum_partial(data, initial)) & 0xFFFF


_INITIALS = st.sampled_from([0, 0xFFFF, 0x1FFFE]) | st.integers(0, (1 << 20) - 1)
_WRAPS = st.sampled_from([bytes, bytearray, memoryview])


def _buffer(length: int, seed: int, fill: str) -> bytes:
    if fill == "zeros":
        return bytes(length)
    if fill == "ones":
        return b"\xff" * length
    rng = random.Random(seed)
    if fill == "sparse":  # word sums that stay below 16 bits: the unfolded branch
        data = bytearray(length)
        for _ in range(min(length, 3)):
            data[rng.randrange(length)] = rng.randrange(256)
        return bytes(data)
    return rng.randbytes(length)


class TestChecksumAgainstByteLoop:
    @given(
        length=st.integers(0, 64) | st.integers(0, 9000),
        seed=st.integers(0, 2**32 - 1),
        fill=st.sampled_from(["random", "sparse", "zeros", "ones"]),
        initial=_INITIALS,
        wrap=_WRAPS,
    )
    @settings(max_examples=300, deadline=None)
    def test_same_value_for_every_buffer(self, length, seed, fill, initial, wrap):
        data = _buffer(length, seed, fill)
        assert checksum_partial(wrap(data), initial) == _loop_checksum_partial(
            data, initial
        )
        assert internet_checksum(wrap(data), initial) == _loop_internet_checksum(
            data, initial
        )

    @pytest.mark.parametrize("byte", [0x00, 0xFF])
    @pytest.mark.parametrize("initial", [0, 0xFFFF, 0x1FFFE, 0xABCDE])
    def test_zero_and_ffff_representations(self, byte, initial):
        # An all-zero buffer must leave 0 as 0 (and 0xFFFF as 0xFFFF); an
        # all-ones buffer folds to 0xFFFF, never to 0.
        for length in (0, 1, 2, 3, 20, 8191, 8192, 9000):
            data = bytes([byte]) * length
            for wrap in (bytes, bytearray, memoryview):
                assert checksum_partial(wrap(data), initial) == _loop_checksum_partial(
                    data, initial
                )
        assert checksum_partial(b"") == 0
        assert checksum_partial(bytes(40)) == 0
        assert checksum_partial(bytes(40), 0xFFFF) == 0xFFFF
        assert checksum_partial(b"\xff" * 40) == 0xFFFF


class TestDatalinkHeader:
    def test_roundtrip(self):
        header = DatalinkHeader(dl_type=0x0800, length=1234, src_node=7, dst_node=9)
        assert DatalinkHeader.unpack(header.pack()) == header

    def test_bad_magic_rejected(self):
        raw = bytearray(DatalinkHeader(0x0800, 1, 1, 2).pack())
        raw[0] ^= 0xFF
        with pytest.raises(ProtocolError, match="magic"):
            DatalinkHeader.unpack(bytes(raw))

    def test_short_rejected(self):
        with pytest.raises(ProtocolError, match="short"):
            DatalinkHeader.unpack(b"\x00\x01")

    @given(
        dl_type=st.integers(0, 0xFFFF),
        length=st.integers(0, 0xFFFFFFFF),
        src=st.integers(0, 0xFFFFFFFF),
        dst=st.integers(0, 0xFFFFFFFF),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, dl_type, length, src, dst):
        header = DatalinkHeader(dl_type, length, src, dst)
        assert DatalinkHeader.unpack(header.pack()) == header


class TestIPv4Header:
    def test_roundtrip_with_checksum(self):
        header = IPv4Header(src=0x0A000001, dst=0x0A000002, protocol=17, total_length=48)
        raw = header.pack()
        parsed = IPv4Header.unpack(raw)
        assert parsed.src == header.src
        assert parsed.dst == header.dst
        assert parsed.protocol == 17
        assert parsed.header_checksum_ok(raw)

    def test_corrupt_header_fails_checksum(self):
        header = IPv4Header(src=1, dst=2, protocol=6, total_length=40)
        raw = bytearray(header.pack())
        raw[8] ^= 0x42
        parsed = IPv4Header.unpack(bytes(raw))
        assert not parsed.header_checksum_ok(bytes(raw))

    def test_fragment_fields(self):
        header = IPv4Header(
            src=1, dst=2, protocol=6, total_length=60, flags=1, fragment_offset=185
        )
        parsed = IPv4Header.unpack(header.pack())
        assert parsed.more_fragments
        assert parsed.fragment_offset == 185

    @given(
        src=st.integers(0, 0xFFFFFFFF),
        dst=st.integers(0, 0xFFFFFFFF),
        protocol=st.integers(0, 255),
        total_length=st.integers(20, 0xFFFF),
        ident=st.integers(0, 0xFFFF),
        offset=st.integers(0, 0x1FFF),
        flags=st.integers(0, 7),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, src, dst, protocol, total_length, ident, offset, flags):
        header = IPv4Header(
            src=src,
            dst=dst,
            protocol=protocol,
            total_length=total_length,
            identification=ident,
            fragment_offset=offset,
            flags=flags,
        )
        raw = header.pack()
        parsed = IPv4Header.unpack(raw)
        assert (parsed.src, parsed.dst, parsed.protocol) == (src, dst, protocol)
        assert parsed.fragment_offset == offset
        assert parsed.flags == flags
        assert parsed.header_checksum_ok(raw)


class TestUDPHeader:
    def test_roundtrip(self):
        header = UDPHeader(src_port=1000, dst_port=2000, length=36, checksum=0xBEEF)
        assert UDPHeader.unpack(header.pack()) == header

    def test_checksum_never_zero(self):
        # UDP uses 0 to mean "no checksum": the computed value must avoid it.
        value = UDPHeader.compute_checksum(1, 2, b"")
        assert value != 0


class TestTCPHeader:
    def test_roundtrip(self):
        header = TCPHeader(
            src_port=80, dst_port=1024, seq=123456, ack=654321, flags=0x18, window=8192
        )
        assert TCPHeader.unpack(header.pack()) == header

    def test_checksum_verify(self):
        header = TCPHeader(
            src_port=80, dst_port=1024, seq=1, ack=2, flags=0x10, window=100
        )
        segment = bytearray(header.pack() + b"some payload")
        checksum = TCPHeader.compute_checksum(0x0A000001, 0x0A000002, bytes(segment))
        segment[16:18] = checksum.to_bytes(2, "big")
        assert TCPHeader.verify(0x0A000001, 0x0A000002, bytes(segment))

    def test_corrupt_payload_fails_verify(self):
        header = TCPHeader(
            src_port=80, dst_port=1024, seq=1, ack=2, flags=0x10, window=100
        )
        segment = bytearray(header.pack() + b"some payload")
        checksum = TCPHeader.compute_checksum(0x0A000001, 0x0A000002, bytes(segment))
        segment[16:18] = checksum.to_bytes(2, "big")
        segment[-1] ^= 1
        assert not TCPHeader.verify(0x0A000001, 0x0A000002, bytes(segment))

    def test_computed_zero_is_sent_as_ffff(self):
        # TCP has no "no checksum" value (RFC 768 grants that to UDP only):
        # a sum that inverts to 0 goes out as 0xFFFF, and both verify.
        src, dst = 0x0A000001, 0x0A000002
        header = TCPHeader(src_port=80, dst_port=1024, seq=1, ack=2, flags=0x10, window=100)
        segment = bytearray(header.pack() + b"\x00\x00")
        # With the checksum field and the last word zero, the value that
        # would be transmitted is exactly the word that completes the sum.
        segment[-2:] = TCPHeader.compute_checksum(src, dst, segment).to_bytes(2, "big")
        assert TCPHeader.verify(src, dst, segment)  # field 0: the sum is already whole
        assert TCPHeader.compute_checksum(src, dst, segment) == 0xFFFF
        segment[16:18] = b"\xff\xff"
        assert TCPHeader.verify(src, dst, segment)

    def test_views_are_summed_in_place(self):
        # The codecs take a memoryview over live storage and read it at call
        # time: a later mutation of the bytearray is seen through the same
        # view, so no staging copy is being relied on.
        src, dst = 0x0A000001, 0x0A000002
        header = TCPHeader(src_port=80, dst_port=1024, seq=1, ack=2, flags=0x10, window=100)
        storage = bytearray(header.pack() + bytes(range(200)))
        view = memoryview(storage)
        storage[16:18] = TCPHeader.compute_checksum(src, dst, view).to_bytes(2, "big")
        assert TCPHeader.verify(src, dst, view)
        assert TCPHeader.verify(src, dst, view.toreadonly())
        storage[-1] ^= 1
        assert not TCPHeader.verify(src, dst, view)
        before = UDPHeader.compute_checksum(src, dst, view)
        storage[40] ^= 0x55
        after = UDPHeader.compute_checksum(src, dst, view)
        assert after != before
        assert after == UDPHeader.compute_checksum(src, dst, bytes(storage))

    def test_flag_names(self):
        header = TCPHeader(1, 2, 0, 0, flags=0x12, window=0)
        assert header.flag_names() == "SYN|ACK"

    @given(
        seq=st.integers(0, 0xFFFFFFFF),
        ack=st.integers(0, 0xFFFFFFFF),
        flags=st.integers(0, 0x3F),
        window=st.integers(0, 0xFFFF),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, seq, ack, flags, window):
        header = TCPHeader(
            src_port=5, dst_port=6, seq=seq, ack=ack, flags=flags, window=window
        )
        assert TCPHeader.unpack(header.pack()) == header


class TestICMPHeader:
    def test_roundtrip(self):
        header = ICMPHeader(icmp_type=8, identifier=42, sequence=7)
        assert ICMPHeader.unpack(header.pack()) == header


class TestNectarTransportHeader:
    def test_roundtrip(self):
        header = NectarTransportHeader(
            protocol=2,
            kind=1,
            seq=99,
            src_node=3,
            src_port=1000,
            dst_node=4,
            dst_port=2000,
            length=512,
        )
        assert NectarTransportHeader.unpack(header.pack()) == header

    def test_reply_to(self):
        header = NectarTransportHeader(protocol=3, kind=2, src_node=5, src_port=77)
        assert header.reply_to() == (5, 77)

    @given(
        protocol=st.integers(0, 255),
        kind=st.integers(0, 255),
        seq=st.integers(0, 0xFFFFFFFF),
        src_port=st.integers(0, 0xFFFFFFFF),
        dst_port=st.integers(0, 0xFFFFFFFF),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, protocol, kind, seq, src_port, dst_port):
        header = NectarTransportHeader(
            protocol=protocol, kind=kind, seq=seq, src_port=src_port, dst_port=dst_port
        )
        assert NectarTransportHeader.unpack(header.pack()) == header
