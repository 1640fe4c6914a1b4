"""NMP: NACK-oriented reliable multicast over the Nectar fabric.

The Nectar Message-multicast Protocol sends sequenced DATA frames to a
*group address* (see :mod:`repro.hub.groups`): the sender emits one frame
and the HUB crossbars replicate it along the group's fan-out tree.  Loss
recovery is receiver-driven in the NORM style (RFC 5740's shape), and
every timer in it is a :class:`~repro.protocols.rto.RetransmitTimer`, the
one TCP, RMP and request-response use:

* Each receiver delivers in order from ``next_seq`` and parks out-of-order
  arrivals in a bounded reorder window.  A sequence gap arms a *NACK timer*
  of ``rank`` times the member's RTO — the deterministic analogue of
  NORM's GRTT-scaled suppression backoff.  The lowest-ranked gapped member
  NACKs first; the sender's *repair* goes to the whole group, so
  higher-ranked members see the gap close before their timers fire and
  count a suppressed NACK instead of sending one.  A member re-NACKs a gap
  still open one RTO after its NACK, backing off each time; a gap closed
  by the first NACK's repair is the member's round-trip sample.
* The sender keeps the last :data:`NMP_REPAIR_WINDOW` payloads (the
  half-open repair window ``(send_seq - window, send_seq]``) and answers
  NACKs with multicast REPAIR frames.
* Tail loss cannot arm a gap timer, so :meth:`NMPProtocol.flush` closes a
  stream NORM-watermark style: the sender multicasts SYNC carrying the
  highest sequence and retransmits it on its timer until every member has
  unicast a SYNC_ACK at or above the watermark (receivers learn the
  watermark, NACK their missing tail, and ACK once delivery reaches it).
  A round every member answers first time is the group round trip (GRTT)
  sample.

State on both sides is bounded: the sender holds one repair window and a
per-member sync set, the receiver one reorder window; everything else is
counters.  Delivery to each member is exactly-once and in-order by
construction (the ``next_seq``/window dedup), which the 20-seed fault
campaigns assert end to end.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

from repro.errors import ProtocolError
from repro.protocols.headers import (
    NECTAR_KIND_DATA,
    NECTAR_KIND_NACK,
    NECTAR_KIND_REPAIR,
    NECTAR_KIND_SYNC,
    NECTAR_KIND_SYNC_ACK,
    NECTAR_PROTO_NMP,
    NectarTransportHeader,
)
from repro.protocols.nectar.transport import NectarTransportLayer, PacketKind
from repro.protocols.rto import RetransmitTimer
from repro.runtime.kernel import Runtime
from repro.runtime.mailbox import Mailbox, Message

__all__ = ["NMPProtocol", "NMPReceiver", "NMPSender"]

#: Sender repair window: payloads retained for retransmission.
NMP_REPAIR_WINDOW = 64
#: Receiver reorder window: out-of-order frames parked awaiting repair.
NMP_RECV_WINDOW = 64
#: Give up flushing after this many SYNC rounds.
NMP_MAX_TRIES = 10


def _header(
    session: NMPSender | NMPReceiver, kind: int, seq: int, dst_node: int, flags: int = 0
) -> NectarTransportHeader:
    """An NMP header from ``session``: both ends of a stream use the group port."""
    return NectarTransportHeader(
        protocol=NECTAR_PROTO_NMP,
        kind=kind,
        seq=seq,
        flags=flags,
        src_port=session.port,
        dst_node=dst_node,
        dst_port=session.port,
    )


class NMPSender:
    """Sender-side state of one multicast stream (one group port)."""

    def __init__(
        self, nmp: "NMPProtocol", group_id: int, port: int, members: Tuple[int, ...]
    ):
        self.nmp = nmp
        self.group_id = group_id
        self.port = port
        #: Node ids of the group members (the SYNC_ACK roll call).
        self.members = members
        self.send_seq = 0
        #: The half-open repair window: seq -> payload bytes.
        self.window: Dict[int, bytes] = {}
        #: Flush state: watermark awaiting SYNC_ACKs from ``synced``.
        self.watermark = -1
        self.synced: set = set()
        self.mutex = nmp.runtime.mutex(f"nmp{port}-send")
        self.sync_mutex = nmp.runtime.mutex(f"nmp{port}-syncwait")
        self.sync_cond = nmp.runtime.condition(f"nmp{port}-sync")
        #: SYNC round trips: the group RTT.
        self.rtt = RetransmitTimer()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NMPSender port={self.port} group=0x{self.group_id:x} "
            f"seq={self.send_seq}>"
        )


class NMPReceiver:
    """Receiver-side state of one group membership (one group port)."""

    def __init__(
        self,
        nmp: "NMPProtocol",
        group_id: int,
        port: int,
        rank: int,
        deliver_mailbox: Mailbox,
    ):
        self.nmp = nmp
        self.group_id = group_id
        self.port = port
        #: This member's index in the group: its NACK-timer stagger.
        self.rank = rank
        self.deliver_mailbox = deliver_mailbox
        #: Next sequence to deliver (everything below is done).
        self.next_seq = 0
        #: Out-of-order arrivals parked until the gap below them closes.
        self.pending: Dict[int, Message] = {}
        #: Highest sequence known to exist (arrivals and SYNC watermarks).
        self.highest = -1
        #: Sender's flush watermark, and the highest watermark we ACKed.
        self.watermark = -1
        self.acked_watermark = -1
        #: Learned from the first frame; NACK/SYNC_ACK destination.
        self.sender_node: Optional[int] = None
        self.mutex = nmp.runtime.mutex(f"nmp{port}-recv")
        self.cond = nmp.runtime.condition(f"nmp{port}-gap")
        #: NACK-to-repair round trips: the NACK and suppression timers.
        self.rtt = RetransmitTimer()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NMPReceiver port={self.port} group=0x{self.group_id:x} "
            f"rank={self.rank} next={self.next_seq}>"
        )


class NMPProtocol:
    """The NACK-oriented reliable multicast protocol of one CAB."""

    def __init__(self, transport: NectarTransportLayer):
        self.transport = transport
        self.runtime: Runtime = transport.runtime
        self.costs = self.runtime.costs
        self.stats = self.runtime.stats
        self._senders: Dict[int, NMPSender] = {}
        self._receivers: Dict[Tuple[int, int], NMPReceiver] = {}

        def receiver(header: NectarTransportHeader) -> Optional[NMPReceiver]:
            return self._receivers.get((header.dst_node, header.dst_port))

        def sender(header: NectarTransportHeader) -> Optional[NMPSender]:
            return self._senders.get(header.dst_port)

        kinds = {
            NECTAR_KIND_DATA: PacketKind(receiver, "nmp_no_port", self._recv_data),
            NECTAR_KIND_REPAIR: PacketKind(receiver, "nmp_no_port", self._recv_data),
            NECTAR_KIND_SYNC: PacketKind(receiver, "nmp_no_port", self._recv_sync, True),
            NECTAR_KIND_NACK: PacketKind(sender, "nmp_no_port", self._recv_nack, True),
            NECTAR_KIND_SYNC_ACK: PacketKind(sender, "nmp_no_port", self._recv_sync_ack, True),
        }
        transport.register(NECTAR_PROTO_NMP, self.costs.nectar_nmp_ns, "nmp", kinds)

    # -- session management ------------------------------------------------------

    def open_sender(
        self, group_id: int, port: int, members: Tuple[int, ...]
    ) -> NMPSender:
        """Open the sending end of a multicast stream on a group port."""
        if port in self._senders:
            raise ProtocolError(f"NMP sender port {port} already open")
        session = NMPSender(self, group_id, port, tuple(members))
        self._senders[port] = session
        return session

    def join(
        self, group_id: int, port: int, rank: int, deliver_mailbox: Mailbox
    ) -> NMPReceiver:
        """Join a group as receiver ``rank``; starts the gap-repair thread."""
        key = (group_id, port)
        if key in self._receivers:
            raise ProtocolError(
                f"NMP group 0x{group_id:x} port {port} already joined"
            )
        session = NMPReceiver(self, group_id, port, rank, deliver_mailbox)
        self._receivers[key] = session
        self.runtime.fork_system(
            self._repair_loop(session), name=f"nmp-gap:{port}"
        )
        return session

    # -- sending (thread context) ------------------------------------------------

    def send(self, session: NMPSender, data: bytes) -> Generator:
        """Reliably multicast one message (returns once it is on the wire;
        delivery assurance comes from :meth:`flush`)."""
        ops = self.runtime.ops
        yield from ops.lock(session.mutex)
        try:
            yield self.costs.nectar_nmp_ns
            seq = session.send_seq
            session.send_seq += 1
            session.window[seq] = data
            session.window.pop(seq - NMP_REPAIR_WINDOW, None)
            header = _header(session, NECTAR_KIND_DATA, seq, session.group_id)
            packet = yield from self.transport.input_mailbox.begin_put(
                NectarTransportHeader.SIZE + len(data)
            )
            yield self.costs.cab_memcpy_ns(len(data))
            packet.write(NectarTransportHeader.SIZE, data)
            yield from self.transport.send_message(header, packet)
            self.stats.add("nmp_data_out")
        finally:
            yield from ops.unlock(session.mutex)

    def flush(self, session: NMPSender) -> Generator:
        """Close the stream's tail: SYNC until every member ACKs the
        watermark (NORM's watermark flush).  Raises ProtocolError when a
        member stays silent for :data:`NMP_MAX_TRIES` rounds."""
        if session.send_seq == 0:
            return
        ops = self.runtime.ops
        watermark = session.send_seq - 1
        yield from ops.lock(session.sync_mutex)
        try:
            if session.watermark != watermark:
                session.watermark = watermark
                session.synced = set()
            tries = 0
            while len(session.synced) < len(session.members):
                if tries >= NMP_MAX_TRIES:
                    missing = len(session.members) - len(session.synced)
                    raise ProtocolError(
                        f"NMP flush: {missing} member(s) never ACKed "
                        f"watermark {watermark} after {NMP_MAX_TRIES} SYNCs"
                    )
                tries += 1
                header = _header(session, NECTAR_KIND_SYNC, watermark, session.group_id)
                yield from self.transport.send_control(header)
                self.stats.add("nmp_syncs_out")
                yield from session.rtt.wait(
                    ops,
                    session.sync_cond,
                    session.sync_mutex,
                    lambda: len(session.synced) >= len(session.members),
                    tries == 1,
                )
        finally:
            yield from ops.unlock(session.sync_mutex)

    # -- the receiver's gap/NACK timer thread --------------------------------------

    def _repair_loop(self, session: NMPReceiver) -> Generator:
        """System thread: arm NACK timers for gaps, suppress on repair.

        Runs for the life of the membership; parks on the condition when
        delivery is gapless, so an idle group costs no events.
        """
        ops = self.runtime.ops
        sim = self.runtime.sim
        rtt = session.rtt
        yield from ops.lock(session.mutex)
        while True:
            if session.next_seq > session.highest:
                yield from ops.wait(session.cond, session.mutex)
                continue
            first = session.next_seq

            def moved(first=first) -> bool:
                return session.next_seq > first

            # Suppression: rank r waits r RTOs, time enough for a lower
            # rank's NACK and its multicast repair to close the gap.
            stagger_ns = session.rank * rtt.rto_ns
            suppressed = yield from ops.wait_until(
                session.cond, session.mutex, moved, sim.now + stagger_ns
            )
            if suppressed:
                self.stats.add("nmp_nacks_suppressed")
                continue
            tries = 0
            while not moved():
                tries += 1
                yield from self._send_nack(session)
                yield from rtt.wait(ops, session.cond, session.mutex, moved, tries == 1)

    def _send_nack(self, session: NMPReceiver) -> Generator:
        if session.sender_node is None:
            return
        start = session.next_seq
        count = 0
        seq = start
        while (
            seq <= session.highest
            and seq not in session.pending
            and count < NMP_RECV_WINDOW
        ):
            count += 1
            seq += 1
        yield self.costs.nectar_nmp_ns
        header = _header(session, NECTAR_KIND_NACK, start, session.sender_node, flags=count)
        yield from self.transport.send_control(header)
        self.stats.add("nmp_nacks_out")

    # -- receiving (interrupt context) ---------------------------------------------

    def _recv_data(
        self, session: NMPReceiver, msg: Message, header: NectarTransportHeader
    ) -> Generator:
        session.sender_node = header.src_node
        seq = header.seq
        if seq < session.next_seq or seq in session.pending:
            yield from self.transport.drop(msg, "nmp_duplicates")
            return
        if seq >= session.next_seq + NMP_RECV_WINDOW:
            yield from self.transport.drop(msg, "nmp_out_of_window")
            return
        self.stats.add(
            "nmp_repairs_in" if header.kind == NECTAR_KIND_REPAIR else "nmp_data_in"
        )
        session.highest = max(session.highest, seq)
        msg.trim_front(NectarTransportHeader.SIZE)
        if seq == session.next_seq:
            session.next_seq += 1
            yield from self.transport.input_mailbox.ienqueue(
                msg, session.deliver_mailbox
            )
            while session.next_seq in session.pending:
                parked = session.pending.pop(session.next_seq)
                session.next_seq += 1
                yield from self.transport.input_mailbox.ienqueue(
                    parked, session.deliver_mailbox
                )
        else:
            session.pending[seq] = msg
        # Wake the gap thread: either a new gap just opened or the head
        # advanced (cancelling / rescheduling any armed NACK timer).
        self.runtime.ops.signal_nocost(session.cond)
        if (
            session.watermark >= 0
            and session.next_seq > session.watermark
            and session.acked_watermark < session.watermark
        ):
            yield from self._send_sync_ack(session, session.watermark)

    def _recv_sync(
        self, session: NMPReceiver, _msg: None, header: NectarTransportHeader
    ) -> Generator:
        session.sender_node = header.src_node
        watermark = header.seq
        self.stats.add("nmp_syncs_in")
        session.watermark = max(session.watermark, watermark)
        session.highest = max(session.highest, watermark)
        if session.next_seq > watermark:
            # Everything at or below the watermark already delivered:
            # (re-)ACK even if we ACKed before — the previous ACK may be
            # the very loss the sender is retrying around.
            yield from self._send_sync_ack(session, watermark)
        else:
            # The watermark proves a tail gap: arm the NACK timer.
            self.runtime.ops.signal_nocost(session.cond)

    def _send_sync_ack(self, session: NMPReceiver, watermark: int) -> Generator:
        if session.sender_node is None:
            return
        session.acked_watermark = max(session.acked_watermark, watermark)
        header = _header(session, NECTAR_KIND_SYNC_ACK, watermark, session.sender_node)
        yield from self.transport.send_control(header)
        self.stats.add("nmp_sync_acks_out")

    # -- sender-side control input (interrupt context) -------------------------------

    def _recv_sync_ack(
        self, session: NMPSender, _msg: None, header: NectarTransportHeader
    ) -> Generator:
        self.stats.add("nmp_sync_acks_in")
        if header.seq >= session.watermark >= 0:
            session.synced.add(header.src_node)
            if len(session.synced) >= len(session.members):
                self.runtime.ops.signal_nocost(session.sync_cond)
        yield from ()

    def _recv_nack(
        self, session: NMPSender, _msg: None, header: NectarTransportHeader
    ) -> Generator:
        self.stats.add("nmp_nacks_in")
        start = header.seq
        count = max(1, header.flags)
        for seq in range(start, min(start + count, session.send_seq)):
            payload = session.window.get(seq)
            if payload is None:
                # Evicted from the repair window: unrecoverable for this
                # member.  Bounded state has a price; count it honestly.
                self.stats.add("nmp_repair_misses")
                continue
            repair = _header(session, NECTAR_KIND_REPAIR, seq, session.group_id)
            yield from self.transport.send_raw_message(repair, payload)
            self.stats.add("nmp_repairs_out")
