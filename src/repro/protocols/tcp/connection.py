"""TCP connection state: the TCB, sequence arithmetic, unacked segments."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.protocols.rto import RetransmitTimer
from repro.units import ms

__all__ = [
    "SEQ_MOD",
    "TCPConnection",
    "TCPState",
    "UnackedSegment",
    "seq_add",
    "seq_ge",
    "seq_gt",
    "seq_le",
    "seq_lt",
]

SEQ_MOD = 1 << 32


def seq_add(seq: int, delta: int) -> int:
    """Sequence-space addition (mod 2^32)."""
    return (seq + delta) % SEQ_MOD


def seq_lt(a: int, b: int) -> bool:
    """a < b in 32-bit sequence space (RFC 793 wraparound comparison)."""
    return ((a - b) % SEQ_MOD) > (SEQ_MOD >> 1)


def seq_le(a: int, b: int) -> bool:
    """a <= b in sequence space."""
    return a == b or seq_lt(a, b)


def seq_gt(a: int, b: int) -> bool:
    """a > b in sequence space."""
    return seq_lt(b, a)


def seq_ge(a: int, b: int) -> bool:
    """a >= b in sequence space."""
    return a == b or seq_lt(b, a)


class TCPState(enum.Enum):
    CLOSED = "CLOSED"
    # Passive open is modeled by separate Listener objects (tcp.py), so no
    # connection ever sits in LISTEN; the member stays for RFC fidelity.
    LISTEN = "LISTEN"  # nectarlint: disable=NP301
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    CLOSING = "CLOSING"
    LAST_ACK = "LAST_ACK"
    TIME_WAIT = "TIME_WAIT"


@dataclass
class UnackedSegment:
    """One in-flight segment kept for possible retransmission."""

    seq: int
    length: int  # payload bytes (SYN/FIN occupy sequence space but carry 0)
    data: bytes
    flags: int
    sent_ns: int
    retransmits: int = 0
    rtt_eligible: bool = True  # Karn: retransmitted segments don't update RTT


#: Default receive window we advertise (bytes).
DEFAULT_RCV_WND = 32 * 1024
#: Send buffer limit: senders block above this much unsent+unacked data.
DEFAULT_SND_BUF = 64 * 1024
#: Give up after this many retransmissions of one segment.
MAX_RETRANSMITS = 8
#: Give up after this many consecutive unanswered zero-window probes.  Any
#: ACK from the peer resets the count, so a live-but-slow receiver is never
#: aborted — only a peer that has gone completely silent.
MAX_WINDOW_PROBES = 12
#: TIME_WAIT duration (2*MSL, scaled for a LAN simulation).
TIME_WAIT_NS = ms(100)


class TCPConnection:
    """The TCB plus user-facing send/receive plumbing.

    All fields are protected by the owning TCPProtocol's lock; user-facing
    methods live on :class:`~repro.protocols.tcp.tcp.TCPProtocol`.
    """

    def __init__(
        self,
        tcp,
        local_port: int,
        remote_ip: int,
        remote_port: int,
        receive_mailbox,
    ):
        self.tcp = tcp
        #: Numbered by the system, not the process: the id seeds the ISS,
        #: so a process-wide counter made the n-th system built in one
        #: interpreter send other header bytes than the first.
        self.conn_id = tcp.ip.registry.allocate_connection_id()
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.receive_mailbox = receive_mailbox
        self.state = TCPState.CLOSED

        # Send side.
        self.iss = (0x1000 * self.conn_id) % SEQ_MOD
        self.snd_una = self.iss
        self.snd_nxt = self.iss
        self.snd_wnd = DEFAULT_RCV_WND
        self.send_buffer = bytearray()  # data not yet put on the wire
        self.unacked: list[UnackedSegment] = []
        self.fin_pending = False  # user closed; FIN still to be sent
        self.fin_sent = False

        # Receive side.
        self.irs = 0
        self.rcv_nxt = 0
        self.rcv_wnd = DEFAULT_RCV_WND
        self.out_of_order: list[tuple[int, bytes]] = []
        self.fin_received = False

        # RTT estimation and the retransmission deadline it sets.
        self.rtt = RetransmitTimer()
        self.rto_deadline_ns: Optional[int] = None
        # Consecutive zero-window probes sent without hearing any ACK back.
        self.window_probes = 0

        # Synchronization (created by the protocol, which owns the runtime).
        ops = tcp.runtime
        self.established_cond = ops.condition(f"tcp{self.conn_id}-established")
        self.closed_cond = ops.condition(f"tcp{self.conn_id}-closed")
        self.send_space_cond = ops.condition(f"tcp{self.conn_id}-sndspace")
        self.error: Optional[str] = None

    # -- derived quantities --------------------------------------------------

    @property
    def four_tuple(self) -> tuple[int, int, int]:
        return (self.local_port, self.remote_ip, self.remote_port)

    @property
    def bytes_in_flight(self) -> int:
        return (self.snd_nxt - self.snd_una) % SEQ_MOD

    @property
    def send_window_avail(self) -> int:
        return max(0, self.snd_wnd - self.bytes_in_flight)

    @property
    def send_buffer_full(self) -> bool:
        return len(self.send_buffer) + self.bytes_in_flight >= DEFAULT_SND_BUF

    def advertised_window(self) -> int:
        """Receive window: capacity minus what the user has not consumed."""
        queued = sum(m.size for m in self.receive_mailbox.queue)
        return max(0, min(0xFFFF, self.rcv_wnd - queued))

    # -- out-of-order reassembly --------------------------------------------------

    def stash_out_of_order(self, seq: int, data: bytes) -> None:
        """Keep an out-of-order byte range (sorted, naive overlap handling)."""
        self.out_of_order.append((seq, data))
        self.out_of_order.sort(key=lambda item: (item[0] - self.rcv_nxt) % SEQ_MOD)

    def drain_in_order(self) -> bytes:
        """Pull now-contiguous bytes from the out-of-order store."""
        delivered = bytearray()
        while self.out_of_order:
            seq, data = self.out_of_order[0]
            if seq_gt(seq, self.rcv_nxt):
                break
            self.out_of_order.pop(0)
            offset = (self.rcv_nxt - seq) % SEQ_MOD
            if offset >= len(data):
                continue  # entirely duplicate
            chunk = data[offset:]
            delivered.extend(chunk)
            self.rcv_nxt = seq_add(self.rcv_nxt, len(chunk))
        return bytes(delivered)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TCPConnection #{self.conn_id} {self.state.value} "
            f"lport={self.local_port} rport={self.remote_port}>"
        )
