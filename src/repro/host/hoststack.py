"""A Berkeley-style host-resident transport for network-device mode.

When the CAB is used as a plain network interface (Sec. 5.1), all protocol
processing runs on the host "as usual".  This module is that host stack: a
windowed, go-back-N reliable byte stream with real sequence numbers, real
software checksums, kernel-crossing and mbuf-walk costs charged per packet
at 1990 Sun-4 magnitudes.  It runs over any NIC exposing ``send``/``recv``
(the CAB netdev interface or the on-board Ethernet), which is exactly the
comparison Figure 8's two baseline lines make: the same stack, 6.4 Mbit/s
through the VME-attached CAB vs 7.2 Mbit/s through the on-board Ethernet.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Deque, Generator, Optional

from repro.cab.cpu import Block, WaitToken
from repro.errors import ProtocolError
from repro.host.machine import Host
from repro.model.costs import CostModel
from repro.protocols.checksum import internet_checksum

__all__ = ["HostStream"]

_HDR_FMT = ">BIIH"  # kind, seq, length, checksum
_HDR_SIZE = struct.calcsize(_HDR_FMT)
_KIND_DATA = 1
_KIND_ACK = 2

#: Go-back-N window (segments).  BSD-era sockets had small buffers.
WINDOW_SEGMENTS = 4
#: Retransmission timeout for the host stack.
RTO_NS = 50_000_000  # 50 ms


def _pack_segment(kind: int, seq: int, payload: bytes) -> bytes:
    header = struct.pack(_HDR_FMT, kind, seq, len(payload), 0)
    checksum = internet_checksum(header + payload)
    header = struct.pack(_HDR_FMT, kind, seq, len(payload), checksum)
    return header + payload


def _unpack_segment(packet: bytes) -> tuple[int, int, bytes]:
    if len(packet) < _HDR_SIZE:
        raise ProtocolError(f"short host-stack segment: {len(packet)} bytes")
    kind, seq, length, checksum = struct.unpack_from(_HDR_FMT, packet)
    payload = packet[_HDR_SIZE : _HDR_SIZE + length]
    if len(payload) != length:
        raise ProtocolError("truncated host-stack segment")
    # The 11-byte header leaves the payload odd-aligned, so header and
    # payload cannot be summed as separate pieces: one probe, summed once.
    probe = struct.pack(_HDR_FMT, kind, seq, length, 0) + payload
    if internet_checksum(probe) != checksum:
        raise ProtocolError("host-stack checksum mismatch")
    return kind, seq, payload


class HostStream:
    """One reliable stream between two hosts over a NIC pair.

    Both endpoints must be created and connected to each other (there is no
    handshake — Figure 8 measures established-connection throughput).
    """

    def __init__(self, host: Host, nic, costs: CostModel, peer: str):
        self.host = host
        self.nic = nic
        self.costs = costs
        self.peer = peer
        self.mss = nic.mtu - _HDR_SIZE

        # Sender state.
        self.snd_una = 0
        self.snd_nxt = 0
        self._segments: dict[int, bytes] = {}  # seq -> payload (until acked)
        self._ack_waiters: Deque[WaitToken] = deque()
        self._last_send_ns = 0

        # Receiver state.
        self.rcv_nxt = 0
        self._delivered: Deque[bytes] = deque()
        self._recv_waiters: Deque[WaitToken] = deque()

        self.bytes_sent = 0
        self.bytes_received = 0
        host.fork_process(self._rx_loop(), name=f"{host.name}.stack-rx")
        host.fork_process(self._retransmit_loop(), name=f"{host.name}.stack-timer")

    # -- sending ---------------------------------------------------------------

    def send(self, data: bytes) -> Generator:
        """Send a byte stream reliably (host process context; blocks on
        window exhaustion, i.e. socket-buffer backpressure)."""
        view = memoryview(bytes(data))
        offset = 0
        while offset < len(view):
            while self.snd_nxt - self.snd_una >= WINDOW_SEGMENTS:
                token = WaitToken(name="stack-window")
                self._ack_waiters.append(token)
                yield Block(token)
            chunk = bytes(view[offset : offset + self.mss])
            offset += len(chunk)
            yield from self._send_data(self.snd_nxt, chunk)
            self.snd_nxt += 1

    def drain(self) -> Generator:
        """Block until every sent byte has been acknowledged."""
        while self.snd_una < self.snd_nxt:
            token = WaitToken(name="stack-drain")
            self._ack_waiters.append(token)
            yield Block(token)

    def _send_data(self, seq: int, payload: bytes) -> Generator:
        # Socket write + mbuf chain + header build: the BSD per-packet tax.
        yield self.costs.host_stack_send_ns
        # User-to-kernel copy and software checksum, per byte.
        yield self.costs.host_memcpy_ns(len(payload))
        yield self.costs.host_checksum_ns(len(payload) + _HDR_SIZE)
        packet = _pack_segment(_KIND_DATA, seq, payload)
        self._segments[seq] = payload
        self._last_send_ns = self.host.sim.now
        self.bytes_sent += len(payload)
        yield from self.nic.send(self.peer, packet)

    # -- receiving ----------------------------------------------------------------

    def recv(self, nbytes: int) -> Generator:
        """Receive exactly ``nbytes`` from the stream (blocks)."""
        out = bytearray()
        while len(out) < nbytes:
            while not self._delivered:
                token = WaitToken(name="stack-recv")
                self._recv_waiters.append(token)
                yield Block(token)
            chunk = self._delivered.popleft()
            take = min(len(chunk), nbytes - len(out))
            out.extend(chunk[:take])
            if take < len(chunk):
                self._delivered.appendleft(chunk[take:])
        return bytes(out)

    # -- protocol engine -------------------------------------------------------------

    def _rx_loop(self) -> Generator:
        while True:
            packet = yield from self.nic.recv()
            yield self.costs.host_stack_recv_ns
            try:
                yield self.costs.host_checksum_ns(len(packet))
                kind, seq, payload = _unpack_segment(packet)
            except ProtocolError:
                continue
            if kind == _KIND_ACK:
                self._process_ack(seq)
            elif kind == _KIND_DATA:
                yield from self._process_data(seq, payload)

    def _process_ack(self, ack_seq: int) -> None:
        if ack_seq > self.snd_una:
            for seq in range(self.snd_una, ack_seq):
                self._segments.pop(seq, None)
            self.snd_una = ack_seq
            while self._ack_waiters:
                token = self._ack_waiters.popleft()
                if not token.cancelled and not token.fired:
                    self.host.cpu.wake(token)

    def _process_data(self, seq: int, payload: bytes) -> Generator:
        if seq == self.rcv_nxt:
            # Kernel-to-user copy.
            yield self.costs.host_memcpy_ns(len(payload))
            self.rcv_nxt += 1
            self.bytes_received += len(payload)
            self._delivered.append(payload)
            while self._recv_waiters:
                token = self._recv_waiters.popleft()
                if not token.cancelled and not token.fired:
                    self.host.cpu.wake(token)
                    break
        # Go-back-N: always (re)acknowledge the next expected segment.
        yield self.costs.host_stack_send_ns // 2
        ack = _pack_segment(_KIND_ACK, self.rcv_nxt, b"")
        yield from self.nic.send(self.peer, ack)

    def _retransmit_loop(self) -> Generator:
        while True:
            token = WaitToken(name="stack-rto")
            self.host.cpu.wake_after(token, RTO_NS)
            yield Block(token)
            if self.snd_una < self.snd_nxt and (
                self.host.sim.now - self._last_send_ns >= RTO_NS
            ):
                # Go-back-N: resend everything from the first unacked.
                for seq in range(self.snd_una, self.snd_nxt):
                    payload = self._segments.get(seq)
                    if payload is not None:
                        yield from self._send_data(seq, payload)
