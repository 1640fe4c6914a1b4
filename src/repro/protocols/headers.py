"""Header codecs: Nectar datalink, IPv4, UDP, TCP, ICMP, Nectar transports.

Every header is packed into real bytes with :mod:`struct` and parsed back;
checksums are real.  Round-tripping is property-tested.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import ProtocolError
from repro.protocols.checksum import (
    Buffer,
    checksum_partial,
    finish_checksum,
    internet_checksum,
)

__all__ = [
    "DatalinkHeader",
    "ICMPHeader",
    "IPv4Header",
    "NectarTransportHeader",
    "TCPHeader",
    "UDPHeader",
    "pseudo_header_sum",
]

# ---------------------------------------------------------------- datalink

#: Datalink packet types (what the CAB datalink demultiplexes on).
DL_TYPE_IP = 0x0800
DL_TYPE_NECTAR = 0x4E43  # 'NC'

_DL_FMT = ">HHIII"
_DL_MAGIC = 0xCAB5


@dataclass
class DatalinkHeader:
    """The Nectar datalink header (16 bytes on the wire).

    Carries the packet type (demux key), total payload length, and the
    source/destination node identifiers.
    """

    dl_type: int
    length: int
    src_node: int
    dst_node: int

    SIZE = struct.calcsize(_DL_FMT)

    def pack(self) -> bytes:
        """Encode to wire bytes."""
        return struct.pack(
            _DL_FMT, _DL_MAGIC, self.dl_type, self.length, self.src_node, self.dst_node
        )

    @classmethod
    def unpack(cls, data: bytes) -> "DatalinkHeader":
        if len(data) < cls.SIZE:
            raise ProtocolError(f"short datalink header: {len(data)} bytes")
        magic, dl_type, length, src, dst = struct.unpack(_DL_FMT, data[: cls.SIZE])
        if magic != _DL_MAGIC:
            raise ProtocolError(f"bad datalink magic 0x{magic:04x}")
        return cls(dl_type=dl_type, length=length, src_node=src, dst_node=dst)


# ------------------------------------------------------------------- IPv4

IPPROTO_ICMP = 1
IPPROTO_TCP = 6
IPPROTO_UDP = 17

_IP_FMT = ">BBHHHBBHII"

IP_FLAG_DF = 0x2
IP_FLAG_MF = 0x1


@dataclass
class IPv4Header:
    """A real IPv4 header (20 bytes, no options), checksum included."""

    src: int  # 32-bit address
    dst: int
    protocol: int
    total_length: int = 0
    identification: int = 0
    flags: int = 0
    fragment_offset: int = 0  # in 8-byte units
    ttl: int = 16
    tos: int = 0
    checksum: int = 0

    SIZE = struct.calcsize(_IP_FMT)

    def pack(self) -> bytes:
        """Encode to wire bytes, filling the header checksum."""
        version_ihl = (4 << 4) | 5
        flags_frag = (self.flags << 13) | (self.fragment_offset & 0x1FFF)
        header = struct.pack(
            _IP_FMT,
            version_ihl,
            self.tos,
            self.total_length,
            self.identification,
            flags_frag,
            self.ttl,
            self.protocol,
            0,
            self.src,
            self.dst,
        )
        checksum = internet_checksum(header)
        self.checksum = checksum
        return header[:10] + struct.pack(">H", checksum) + header[12:]

    @classmethod
    def unpack(cls, data: bytes) -> "IPv4Header":
        if len(data) < cls.SIZE:
            raise ProtocolError(f"short IP header: {len(data)} bytes")
        (
            version_ihl,
            tos,
            total_length,
            identification,
            flags_frag,
            ttl,
            protocol,
            checksum,
            src,
            dst,
        ) = struct.unpack(_IP_FMT, data[: cls.SIZE])
        if version_ihl >> 4 != 4:
            raise ProtocolError(f"not IPv4 (version {version_ihl >> 4})")
        if (version_ihl & 0xF) != 5:
            raise ProtocolError("IP options are not supported")
        return cls(
            src=src,
            dst=dst,
            protocol=protocol,
            total_length=total_length,
            identification=identification,
            flags=flags_frag >> 13,
            fragment_offset=flags_frag & 0x1FFF,
            ttl=ttl,
            tos=tos,
            checksum=checksum,
        )

    def header_checksum_ok(self, raw: Buffer) -> bool:
        """Verify the header checksum over the raw 20 header bytes."""
        return internet_checksum(raw[: self.SIZE]) == 0

    @property
    def more_fragments(self) -> bool:
        return bool(self.flags & IP_FLAG_MF)


def pseudo_header_sum(src: int, dst: int, protocol: int, length: int) -> int:
    """Running sum of the TCP/UDP pseudo-header."""
    pseudo = struct.pack(">IIBBH", src, dst, 0, protocol, length)
    return checksum_partial(pseudo)


def _segment_sum(protocol: int, src_ip: int, dst_ip: int, segment: Buffer) -> int:
    """Inverted sum over pseudo-header + ``segment``, summed in place.

    The value to transmit when the checksum field is zero; 0 when the
    field already holds a valid checksum.
    """
    partial = pseudo_header_sum(src_ip, dst_ip, protocol, len(segment))
    return finish_checksum(checksum_partial(segment, partial))


# -------------------------------------------------------------------- UDP

_UDP_FMT = ">HHHH"


@dataclass
class UDPHeader:
    """A real UDP header (8 bytes)."""

    src_port: int
    dst_port: int
    length: int = 0
    checksum: int = 0

    SIZE = struct.calcsize(_UDP_FMT)

    def pack(self) -> bytes:
        """Encode to wire bytes."""
        return struct.pack(
            _UDP_FMT, self.src_port, self.dst_port, self.length, self.checksum
        )

    @classmethod
    def unpack(cls, data: bytes) -> "UDPHeader":
        if len(data) < cls.SIZE:
            raise ProtocolError(f"short UDP header: {len(data)} bytes")
        src, dst, length, checksum = struct.unpack(_UDP_FMT, data[: cls.SIZE])
        return cls(src_port=src, dst_port=dst, length=length, checksum=checksum)

    @staticmethod
    def compute_checksum(src_ip: int, dst_ip: int, segment: Buffer) -> int:
        # 0 means "no checksum" in UDP (RFC 768); 0xFFFF verifies the same.
        return _segment_sum(IPPROTO_UDP, src_ip, dst_ip, segment) or 0xFFFF


# -------------------------------------------------------------------- TCP

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10

_TCP_FMT = ">HHIIBBHHH"


@dataclass
class TCPHeader:
    """A real TCP header (20 bytes, no options)."""

    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    window: int
    checksum: int = 0
    urgent: int = 0

    SIZE = struct.calcsize(_TCP_FMT)

    def pack(self) -> bytes:
        """Encode to wire bytes."""
        data_offset = (5 << 4)
        return struct.pack(
            _TCP_FMT,
            self.src_port,
            self.dst_port,
            self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF,
            data_offset,
            self.flags,
            self.window,
            self.checksum,
            self.urgent,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "TCPHeader":
        if len(data) < cls.SIZE:
            raise ProtocolError(f"short TCP header: {len(data)} bytes")
        (
            src,
            dst,
            seq,
            ack,
            data_offset,
            flags,
            window,
            checksum,
            urgent,
        ) = struct.unpack(_TCP_FMT, data[: cls.SIZE])
        if data_offset >> 4 != 5:
            raise ProtocolError("TCP options are not supported")
        return cls(
            src_port=src,
            dst_port=dst,
            seq=seq,
            ack=ack,
            flags=flags,
            window=window,
            checksum=checksum,
            urgent=urgent,
        )

    @staticmethod
    def compute_checksum(src_ip: int, dst_ip: int, segment: Buffer) -> int:
        # TCP has no "no checksum" value: every segment is verified, and a
        # computed 0 goes out as 0xFFFF, its other one's-complement spelling.
        return _segment_sum(IPPROTO_TCP, src_ip, dst_ip, segment) or 0xFFFF

    @staticmethod
    def verify(src_ip: int, dst_ip: int, segment: Buffer) -> bool:
        return _segment_sum(IPPROTO_TCP, src_ip, dst_ip, segment) == 0

    def flag_names(self) -> str:
        """Human-readable flag list, e.g. 'SYN|ACK'."""
        names = []
        for bit, name in (
            (TCP_SYN, "SYN"),
            (TCP_ACK, "ACK"),
            (TCP_FIN, "FIN"),
            (TCP_RST, "RST"),
            (TCP_PSH, "PSH"),
        ):
            if self.flags & bit:
                names.append(name)
        return "|".join(names) or "-"


# -------------------------------------------------------------------- ICMP

ICMP_ECHO_REQUEST = 8
ICMP_ECHO_REPLY = 0
ICMP_DEST_UNREACHABLE = 3
ICMP_CODE_PORT_UNREACHABLE = 3

_ICMP_FMT = ">BBHHH"


@dataclass
class ICMPHeader:
    """ICMP echo request/reply header (8 bytes)."""

    icmp_type: int
    code: int = 0
    checksum: int = 0
    identifier: int = 0
    sequence: int = 0

    SIZE = struct.calcsize(_ICMP_FMT)

    def pack(self) -> bytes:
        """Encode to wire bytes."""
        return struct.pack(
            _ICMP_FMT, self.icmp_type, self.code, self.checksum, self.identifier, self.sequence
        )

    @classmethod
    def unpack(cls, data: bytes) -> "ICMPHeader":
        if len(data) < cls.SIZE:
            raise ProtocolError(f"short ICMP header: {len(data)} bytes")
        icmp_type, code, checksum, identifier, sequence = struct.unpack(
            _ICMP_FMT, data[: cls.SIZE]
        )
        return cls(
            icmp_type=icmp_type,
            code=code,
            checksum=checksum,
            identifier=identifier,
            sequence=sequence,
        )

    @staticmethod
    def compute_checksum(message: Buffer) -> int:
        return internet_checksum(message)


# ------------------------------------------------------ Nectar transports

NECTAR_PROTO_DATAGRAM = 1
NECTAR_PROTO_RMP = 2
NECTAR_PROTO_REQRESP = 3
NECTAR_PROTO_NMP = 4
NECTAR_PROTO_COLL = 5

NECTAR_KIND_DATA = 0
NECTAR_KIND_ACK = 1
NECTAR_KIND_REQUEST = 2
NECTAR_KIND_RESPONSE = 3
# NMP (NACK-oriented reliable multicast, repro.protocols.nectar.nmp)
NECTAR_KIND_NACK = 4
NECTAR_KIND_REPAIR = 5
NECTAR_KIND_SYNC = 6
NECTAR_KIND_SYNC_ACK = 7
# The CAB-resident barrier (repro.protocols.nectar.collective)
NECTAR_KIND_ARRIVE = 8
NECTAR_KIND_RELEASE = 9

_NT_FMT = ">BBHIIIIII"


@dataclass
class NectarTransportHeader:
    """Shared header for the Nectar-specific transport protocols (28 bytes).

    Ports address mailboxes: the Nectar transports deliver directly into a
    mailbox with a network-wide address (paper Sec. 3.3), so the header
    carries full (node, port) pairs for both ends.
    """

    protocol: int
    kind: int
    flags: int = 0
    seq: int = 0
    src_node: int = 0
    src_port: int = 0
    dst_node: int = 0
    dst_port: int = 0
    length: int = 0

    SIZE = struct.calcsize(_NT_FMT)

    def pack(self) -> bytes:
        """Encode to wire bytes."""
        return struct.pack(
            _NT_FMT,
            self.protocol,
            self.kind,
            self.flags,
            self.seq,
            self.src_node,
            self.src_port,
            self.dst_node,
            self.dst_port,
            self.length,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "NectarTransportHeader":
        if len(data) < cls.SIZE:
            raise ProtocolError(f"short Nectar transport header: {len(data)} bytes")
        (
            protocol,
            kind,
            flags,
            seq,
            src_node,
            src_port,
            dst_node,
            dst_port,
            length,
        ) = struct.unpack(_NT_FMT, data[: cls.SIZE])
        return cls(
            protocol=protocol,
            kind=kind,
            flags=flags,
            seq=seq,
            src_node=src_node,
            src_port=src_port,
            dst_node=dst_node,
            dst_port=dst_port,
            length=length,
        )

    def reply_to(self) -> tuple[int, int]:
        """(node, port) to answer this packet's sender."""
        return (self.src_node, self.src_port)
