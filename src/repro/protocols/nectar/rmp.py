"""RMP: the Nectar reliable message protocol (a simple stop-and-wait).

One message is outstanding per channel at a time; the receiver acknowledges
each message, and the sender retransmits on timeout.  The timeout is the
channel's :class:`~repro.protocols.rto.RetransmitTimer`: every message
ACKed on its first try is a round-trip sample, and every timeout backs off.
RMP does no software checksum — it relies on the CRC implemented by the
CAB hardware (corrupted frames never reach the protocol: the datalink drops
them and the sender's timeout recovers).  That is exactly why RMP reaches ~90 Mbit/s CAB-to-CAB in
Figure 7 while TCP pays a per-byte software checksum cost.

ACK processing happens at interrupt time (it only wakes the waiting sender);
data delivery also happens at interrupt time, straight into the bound user
mailbox.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Union

from repro.errors import ProtocolError
from repro.protocols.headers import (
    NECTAR_KIND_ACK,
    NECTAR_KIND_DATA,
    NECTAR_PROTO_RMP,
    NectarTransportHeader,
)
from repro.protocols.nectar.transport import NectarTransportLayer, PacketKind
from repro.protocols.rto import RetransmitTimer
from repro.runtime.kernel import Runtime
from repro.runtime.mailbox import Mailbox, Message

__all__ = ["RMPChannel", "RMPProtocol"]

#: Give up after this many transmissions of one message.
RMP_MAX_TRIES = 10


class RMPChannel:
    """One reliable point-to-point message stream."""

    def __init__(self, rmp: "RMPProtocol", local_port: int, remote_node: int, remote_port: int):
        self.rmp = rmp
        self.local_port = local_port
        self.remote_node = remote_node
        self.remote_port = remote_port
        # Sender state (stop-and-wait: one message outstanding).
        self.send_seq = 0
        self.acked_seq: Optional[int] = None
        self.send_mutex = rmp.runtime.mutex(f"rmp{local_port}-send")
        self.ack_mutex = rmp.runtime.mutex(f"rmp{local_port}-ackwait")
        self.ack_cond = rmp.runtime.condition(f"rmp{local_port}-ack")
        self.rtt = RetransmitTimer()
        # Receiver state.
        self.recv_seq = 0
        self.deliver_mailbox: Optional[Mailbox] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RMPChannel {self.local_port}->{self.remote_node}:{self.remote_port} "
            f"seq={self.send_seq}>"
        )


class RMPProtocol:
    """The reliable message protocol of one CAB."""

    def __init__(self, transport: NectarTransportLayer):
        self.transport = transport
        self.runtime: Runtime = transport.runtime
        self.costs = self.runtime.costs
        self._channels: Dict[int, RMPChannel] = {}
        self.stats = self.runtime.stats

        def channel(header: NectarTransportHeader) -> Optional[RMPChannel]:
            return self._channels.get(header.dst_port)

        kinds = {
            NECTAR_KIND_ACK: PacketKind(channel, "rmp_no_port", self._recv_ack, True),
            NECTAR_KIND_DATA: PacketKind(channel, "rmp_no_port", self._recv_data),
        }
        transport.register(NECTAR_PROTO_RMP, self.costs.nectar_rmp_ns, "rmp", kinds)

    # -- channel management ------------------------------------------------------

    def open(
        self,
        local_port: int,
        remote_node: int,
        remote_port: int,
        deliver_mailbox: Optional[Mailbox] = None,
    ) -> RMPChannel:
        """Open a channel endpoint.

        ``deliver_mailbox`` receives incoming messages on ``local_port``.
        """
        if local_port in self._channels:
            raise ProtocolError(f"RMP port {local_port} already open")
        channel = RMPChannel(self, local_port, remote_node, remote_port)
        channel.deliver_mailbox = deliver_mailbox
        self._channels[local_port] = channel
        return channel

    # -- sending ---------------------------------------------------------------

    def send(
        self,
        channel: RMPChannel,
        data: Union[bytes, Message],
        charge_copy: bool = True,
    ) -> Generator:
        """Thread-context: reliably send one message (blocks until ACKed).

        ``data`` is raw bytes or a Message laid out as
        ``[28-byte header room][payload]``.  ``charge_copy=False`` models a
        sender whose payload already resides in CAB data memory (the
        throughput benchmarks transmit from a resident buffer, as the
        paper's measurements did).
        """
        with self.runtime.span("rmp", "send", {"port": channel.local_port}):
            ops = self.runtime.ops
            yield from ops.lock(channel.send_mutex)
            yield self.costs.nectar_rmp_ns
            # A Message is consumed by the first send (zero copy); every
            # retransmission rebuilds the packet from the kept payload bytes.
            resident = isinstance(data, Message)
            payload = data.read(NectarTransportHeader.SIZE) if resident else data
            seq = channel.send_seq
            channel.send_seq += 1

            def transmit(tries: int) -> Generator:
                header = NectarTransportHeader(
                    protocol=NECTAR_PROTO_RMP,
                    kind=NECTAR_KIND_DATA,
                    seq=seq,
                    src_port=channel.local_port,
                    dst_node=channel.remote_node,
                    dst_port=channel.remote_port,
                )
                if resident and tries == 1:
                    yield from self.transport.send_message(header, data)
                else:
                    packet = yield from self._build_packet(header, payload, charge_copy)
                    yield from self.transport.send_message(header, packet)
                self.stats.add("rmp_data_out")
                if tries > 1:
                    self.stats.add("rmp_retransmits")
                    self.runtime.tracer.emit("rmp", "retransmit", {"seq": seq, "try": tries})

            acked = yield from channel.rtt.exchange(
                ops,
                channel.ack_cond,
                channel.ack_mutex,
                lambda: channel.acked_seq is not None and channel.acked_seq >= seq,
                transmit,
                RMP_MAX_TRIES,
            )
            yield from ops.unlock(channel.send_mutex)
            if not acked:
                raise ProtocolError(
                    f"RMP: no ACK for seq {seq} after {RMP_MAX_TRIES} tries"
                )

    def _build_packet(
        self, header: NectarTransportHeader, payload: bytes, charge_copy: bool = True
    ) -> Generator:
        packet = yield from self.transport.input_mailbox.begin_put(
            NectarTransportHeader.SIZE + len(payload)
        )
        if charge_copy:
            yield self.costs.cab_memcpy_ns(len(payload))
        packet.write(NectarTransportHeader.SIZE, payload)
        return packet

    # -- receiving (interrupt context) -----------------------------------------------

    def _recv_ack(
        self, channel: RMPChannel, _msg: None, header: NectarTransportHeader
    ) -> Generator:
        if channel.acked_seq is None or header.seq > channel.acked_seq:
            channel.acked_seq = header.seq
        self.runtime.ops.signal_nocost(channel.ack_cond)
        self.stats.add("rmp_acks_in")
        yield from ()

    def _recv_data(
        self, channel: RMPChannel, msg: Message, header: NectarTransportHeader
    ) -> Generator:
        # ACK everything up to the highest in-order sequence.
        if header.seq == channel.recv_seq:
            channel.recv_seq += 1
            msg.trim_front(NectarTransportHeader.SIZE)
            self.stats.add("rmp_data_in")
            if channel.deliver_mailbox is not None:
                yield from self.transport.input_mailbox.ienqueue(
                    msg, channel.deliver_mailbox
                )
            else:
                yield from self.transport.drop(msg)
        elif header.seq < channel.recv_seq:
            # Duplicate (our ACK was lost): drop, re-ACK below.
            yield from self.transport.drop(msg, "rmp_duplicates")
        else:
            # Future sequence: a restarted peer or skipped-ahead sender.
            # Stop-and-wait never produces this in normal operation; drop
            # it and, if nothing was ever delivered, stay silent — there
            # is no previous sequence to re-ACK (the header cannot even
            # encode one), and the sender's bounded retry gives up with a
            # ProtocolError rather than retransmitting forever.
            yield from self.transport.drop(msg, "rmp_out_of_window")
            if channel.recv_seq == 0:
                return
        ack = NectarTransportHeader(
            protocol=NECTAR_PROTO_RMP,
            kind=NECTAR_KIND_ACK,
            seq=channel.recv_seq - 1,
            src_port=channel.local_port,
            dst_node=header.src_node,
            dst_port=header.src_port,
        )
        self.stats.add("rmp_acks_out")
        yield from self.transport.send_control(ack)
