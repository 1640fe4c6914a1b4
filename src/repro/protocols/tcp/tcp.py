"""The TCP protocol engine: input thread, send thread, timer thread.

Structure follows paper Sec. 4.2:

* All input processing happens in the **TCP input thread**, which blocks on
  a Begin_Get of the TCP input mailbox until IP enqueues a segment, then
  checksums the entire packet (in software — the cost that separates TCP
  from RMP in Fig. 7) and runs standard TCP input processing.  Data reaches
  the user by deleting the headers in place and Enqueue-ing the packet into
  the user's receive mailbox.
* Users send by placing a request in the **send-request mailbox**, serviced
  by the TCP send thread; CAB-resident senders may call the output routine
  directly without involving the send thread.
* Shared connection state is protected by a mutex, not by disabling
  interrupts — possible precisely because TCP runs in threads.

The state machine covers the full RFC 793 lifecycle (LISTEN through
TIME_WAIT), retransmission with Jacobson RTO estimation and Karn's rule,
out-of-order reassembly, flow control from the peer's advertised window,
and zero-window probing.
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, Optional

from repro.errors import ProtocolError
from repro.protocols.headers import (
    IPPROTO_TCP,
    IPv4Header,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    TCPHeader,
)
from repro.protocols.ip import IPProtocol
from repro.protocols.tcp.connection import (
    MAX_RETRANSMITS,
    MAX_WINDOW_PROBES,
    TCPConnection,
    TCPState,
    TIME_WAIT_NS,
    UnackedSegment,
    seq_add,
    seq_ge,
    seq_gt,
    seq_le,
    seq_lt,
)
from repro.runtime.kernel import Runtime
from repro.runtime.mailbox import Mailbox, Message
from repro.units import ms

__all__ = ["Listener", "TCPProtocol"]

#: Timer thread tick.
TIMER_TICK_NS = ms(10)
#: Maximum segment size (payload bytes per segment).
DEFAULT_MSS = 1460

_SEND_REQUEST_FMT = ">II"  # conn_id, length


class Listener:
    """A passive open: accepts connections on a local port."""

    def __init__(self, tcp: "TCPProtocol", port: int, mailbox_factory):
        self.tcp = tcp
        self.port = port
        self.mailbox_factory = mailbox_factory
        self.accepted: list[TCPConnection] = []
        self.accept_cond = tcp.runtime.condition(f"tcp-listen-{port}")


class TCPProtocol:
    """The TCP layer of one CAB."""

    def __init__(
        self,
        runtime: Runtime,
        ip: IPProtocol,
        checksums: bool = True,
        mss: int = DEFAULT_MSS,
    ):
        self.runtime = runtime
        self.costs = runtime.costs
        self.ip = ip
        self.checksums = checksums
        self.mss = mss
        self.input_mailbox = runtime.mailbox("tcp-input")
        self.send_request_mailbox = runtime.mailbox("tcp-send-request")
        ip.register_transport(IPPROTO_TCP, self.input_mailbox)

        self.lock = runtime.mutex("tcp-lock")
        self.connections: Dict[tuple[int, int, int], TCPConnection] = {}
        self.by_id: Dict[int, TCPConnection] = {}
        self.listeners: Dict[int, Listener] = {}
        self._timer_work = runtime.condition("tcp-timer-work")
        self._time_wait_deadlines: Dict[int, int] = {}
        self._zero_window_probes: Dict[int, int] = {}
        self.stats = runtime.stats

        runtime.fork_system(self._input_thread(), name="tcp-input")
        runtime.fork_system(self._send_thread(), name="tcp-send")
        runtime.fork_system(self._timer_thread(), name="tcp-timer")

    # ==================================================================== API

    def connect(
        self,
        local_port: int,
        remote_ip: int,
        remote_port: int,
        receive_mailbox: Mailbox,
    ) -> Generator:
        """Active open.  Blocks until ESTABLISHED; returns the connection."""
        ops = self.runtime.ops
        yield from ops.lock(self.lock)
        conn = TCPConnection(self, local_port, remote_ip, remote_port, receive_mailbox)
        key = conn.four_tuple
        if key in self.connections:
            yield from ops.unlock(self.lock)
            raise ProtocolError(f"connection {key} already exists")
        self.connections[key] = conn
        self.by_id[conn.conn_id] = conn
        conn.state = TCPState.SYN_SENT
        yield from self._send_segment(conn, conn.snd_nxt, b"", TCP_SYN, ack=False)
        conn.snd_nxt = seq_add(conn.snd_nxt, 1)
        self._arm_retransmit(conn)
        while conn.state not in (TCPState.ESTABLISHED, TCPState.CLOSED):
            yield from ops.wait(conn.established_cond, self.lock)
        failed = conn.error
        yield from ops.unlock(self.lock)
        if failed:
            raise ProtocolError(f"connect failed: {failed}")
        return conn

    def listen(self, port: int, mailbox_factory) -> Listener:
        """Passive open.  ``mailbox_factory(conn)`` makes the receive mailbox."""
        if port in self.listeners:
            raise ProtocolError(f"TCP port {port} already listening")
        listener = Listener(self, port, mailbox_factory)
        self.listeners[port] = listener
        return listener

    def accept(self, listener: Listener) -> Generator:
        """Block until a connection reaches ESTABLISHED; return it."""
        ops = self.runtime.ops
        yield from ops.lock(self.lock)
        while not listener.accepted:
            yield from ops.wait(listener.accept_cond, self.lock)
        conn = listener.accepted.pop(0)
        yield from ops.unlock(self.lock)
        return conn

    def send(self, conn: TCPConnection, data: bytes) -> Generator:
        """Send through the send-request mailbox (paper's standard path).

        Blocks while the connection's send buffer is full (flow control all
        the way back to the sender).
        """
        ops = self.runtime.ops
        with self.runtime.span("tcp", "send", {"bytes": len(data)}):
            yield from ops.lock(self.lock)
            self._check_sendable(conn)
            while conn.send_buffer_full:
                yield from ops.wait(conn.send_space_cond, self.lock)
                self._check_sendable(conn)
            yield from ops.unlock(self.lock)
            request = yield from self.send_request_mailbox.begin_put(
                struct.calcsize(_SEND_REQUEST_FMT) + len(data)
            )
            yield self.costs.cab_memcpy_ns(len(data))
            request.write(0, struct.pack(_SEND_REQUEST_FMT, conn.conn_id, len(data)))
            request.write(struct.calcsize(_SEND_REQUEST_FMT), data)
            yield from self.send_request_mailbox.end_put(request)

    def send_direct(self, conn: TCPConnection, data: bytes) -> Generator:
        """CAB-resident fast path: append to the send queue and run output
        directly, without involving the send thread (paper Sec. 4.2)."""
        ops = self.runtime.ops
        with self.runtime.span("tcp", "send", {"bytes": len(data)}):
            yield from ops.lock(self.lock)
            self._check_sendable(conn)
            while conn.send_buffer_full:
                yield from ops.wait(conn.send_space_cond, self.lock)
                self._check_sendable(conn)
            conn.send_buffer.extend(data)
            yield from self._output(conn)
            yield from ops.unlock(self.lock)

    def close(self, conn: TCPConnection) -> Generator:
        """Begin an orderly close; returns once the FIN is queued."""
        ops = self.runtime.ops
        yield from ops.lock(self.lock)
        if conn.state is TCPState.ESTABLISHED:
            conn.state = TCPState.FIN_WAIT_1
            conn.fin_pending = True
            yield from self._output(conn)
        elif conn.state is TCPState.CLOSE_WAIT:
            conn.state = TCPState.LAST_ACK
            conn.fin_pending = True
            yield from self._output(conn)
        elif conn.state in (TCPState.SYN_SENT, TCPState.CLOSED):
            self._destroy(conn)
        yield from ops.unlock(self.lock)

    def wait_closed(self, conn: TCPConnection) -> Generator:
        """Block until the connection is fully closed."""
        ops = self.runtime.ops
        yield from ops.lock(self.lock)
        while conn.state is not TCPState.CLOSED:
            yield from ops.wait(conn.closed_cond, self.lock)
        yield from ops.unlock(self.lock)

    def _check_sendable(self, conn: TCPConnection) -> None:
        if conn.error:
            raise ProtocolError(f"connection error: {conn.error}")
        if conn.state not in (TCPState.ESTABLISHED, TCPState.CLOSE_WAIT):
            raise ProtocolError(f"cannot send in state {conn.state.value}")

    # ============================================================ send thread

    def _send_thread(self) -> Generator:
        ops = self.runtime.ops
        header_size = struct.calcsize(_SEND_REQUEST_FMT)
        while True:
            request = yield from self.send_request_mailbox.begin_get()
            conn_id, length = struct.unpack(
                _SEND_REQUEST_FMT, request.view(0, header_size)
            )
            # The data outlives end_get below (it lands in send_buffer after
            # the request message is freed): keep the copy.
            data = request.read(header_size, length)
            yield from self.send_request_mailbox.end_get(request)
            yield from ops.lock(self.lock)
            conn = self.by_id.get(conn_id)
            if conn is not None and conn.state in (
                TCPState.ESTABLISHED,
                TCPState.CLOSE_WAIT,
            ):
                conn.send_buffer.extend(data)
                yield from self._output(conn)
            yield from ops.unlock(self.lock)

    # ============================================================== output

    def _output(self, conn: TCPConnection) -> Generator:
        """Push as much queued data as the send window allows (lock held)."""
        while conn.send_buffer:
            window = conn.send_window_avail
            if window == 0:
                self._note_zero_window(conn)
                return
            chunk = min(self.mss, window, len(conn.send_buffer))
            data = bytes(conn.send_buffer[:chunk])
            del conn.send_buffer[:chunk]
            flags = TCP_ACK | TCP_PSH
            yield from self._send_segment(conn, conn.snd_nxt, data, flags)
            conn.snd_nxt = seq_add(conn.snd_nxt, chunk)
            self._arm_retransmit(conn)
        if conn.fin_pending and not conn.fin_sent and not conn.send_buffer:
            yield from self._send_segment(conn, conn.snd_nxt, b"", TCP_FIN | TCP_ACK)
            conn.snd_nxt = seq_add(conn.snd_nxt, 1)
            conn.fin_sent = True
            self._arm_retransmit(conn)

    def _send_segment(
        self,
        conn: TCPConnection,
        seq: int,
        data: bytes,
        flags: int,
        ack: bool = True,
        track: bool = True,
    ) -> Generator:
        """Build and transmit one segment (lock held)."""
        yield self.costs.tcp_output_ns
        header = TCPHeader(
            src_port=conn.local_port,
            dst_port=conn.remote_port,
            seq=seq,
            ack=conn.rcv_nxt if ack else 0,
            flags=flags,
            window=conn.advertised_window(),
        )
        segment = bytearray(header.pack())
        segment.extend(data)
        if self.checksums:
            yield self.costs.cab_checksum_ns(len(segment))
            checksum = TCPHeader.compute_checksum(
                self.ip.address, conn.remote_ip, segment
            )
            segment[16:18] = checksum.to_bytes(2, "big")
        # Record the segment for retransmission BEFORE trying to allocate a
        # transmit buffer: if the heap is exhausted the send degrades into a
        # lost segment that the retransmission timer recovers — the payload
        # lives on in the UnackedSegment.
        if track and (data or flags & (TCP_SYN | TCP_FIN)):
            conn.unacked.append(
                UnackedSegment(
                    seq=seq,
                    length=len(data),
                    data=data,
                    flags=flags,
                    sent_ns=self.runtime.sim.now,
                )
            )
        msg = yield from self.input_mailbox.ibegin_put(IPv4Header.SIZE + len(segment))
        if msg is None:
            self.stats.add("tcp_out_no_buffer")
            self._arm_retransmit(conn)
            return
        yield self.costs.cab_memcpy_ns(len(data))
        msg.write(IPv4Header.SIZE, segment)
        template = IPv4Header(src=0, dst=conn.remote_ip, protocol=IPPROTO_TCP)
        self.stats.add("tcp_segments_out")
        yield from self.ip.output(template, msg, free_after=True)

    def _send_ack(self, conn: TCPConnection) -> Generator:
        yield from self._send_segment(conn, conn.snd_nxt, b"", TCP_ACK, track=False)

    def _arm_retransmit(self, conn: TCPConnection) -> None:
        if conn.unacked and conn.rto_deadline_ns is None:
            conn.rto_deadline_ns = self.runtime.sim.now + conn.rtt.rto_ns
        self.runtime.ops.signal_nocost(self._timer_work)

    def _note_zero_window(self, conn: TCPConnection) -> None:
        if conn.snd_wnd == 0 and conn.conn_id not in self._zero_window_probes:
            self._zero_window_probes[conn.conn_id] = (
                self.runtime.sim.now + conn.rtt.rto_ns
            )
            self.runtime.ops.signal_nocost(self._timer_work)

    # ============================================================ input thread

    def _input_thread(self) -> Generator:
        ops = self.runtime.ops
        while True:
            msg = yield from self.input_mailbox.begin_get()
            yield self.costs.tcp_input_ns
            if msg.size < IPv4Header.SIZE + TCPHeader.SIZE:
                self.stats.add("tcp_malformed")
                yield from self.input_mailbox.end_get(msg)
                continue
            try:
                ip_header = IPv4Header.unpack(msg.view(0, IPv4Header.SIZE))
                segment = msg.view(IPv4Header.SIZE)
                tcp_header = TCPHeader.unpack(segment)
            except ProtocolError:
                self.stats.add("tcp_malformed")
                yield from self.input_mailbox.end_get(msg)
                continue
            if self.checksums:
                yield self.costs.cab_checksum_ns(len(segment))
                if not TCPHeader.verify(ip_header.src, ip_header.dst, segment):
                    self.stats.add("tcp_bad_checksum")
                    yield from self.input_mailbox.end_get(msg)
                    continue
            self.stats.add("tcp_segments_in")
            yield from ops.lock(self.lock)
            yield from self._segment_arrives(msg, ip_header, tcp_header, len(segment))
            yield from ops.unlock(self.lock)

    def _segment_arrives(
        self,
        msg: Message,
        ip_header: IPv4Header,
        header: TCPHeader,
        segment_len: int,
    ) -> Generator:
        """RFC 793 segment processing (lock held).  Consumes ``msg``."""
        key = (header.dst_port, ip_header.src, header.src_port)
        conn = self.connections.get(key)
        payload_len = segment_len - TCPHeader.SIZE

        if conn is None:
            listener = self.listeners.get(header.dst_port)
            if (
                listener is not None
                and header.flags & TCP_SYN
                and not header.flags & TCP_ACK
            ):
                yield from self._passive_open(listener, ip_header, header)
            elif not header.flags & TCP_RST:
                yield from self._send_rst(ip_header, header, segment_len)
            yield from self.input_mailbox.end_get(msg)
            return

        if header.flags & TCP_RST:
            self._abort(conn, "connection reset by peer")
            yield from self.input_mailbox.end_get(msg)
            return

        # --- ACK processing -------------------------------------------------
        if header.flags & TCP_ACK:
            yield from self._process_ack(conn, header)

        # --- SYN handling for the active opener ------------------------------
        if header.flags & TCP_SYN and conn.state is TCPState.SYN_SENT:
            conn.irs = header.seq
            conn.rcv_nxt = seq_add(header.seq, 1)
            if seq_gt(conn.snd_una, conn.iss):
                conn.state = TCPState.ESTABLISHED
                conn.snd_wnd = header.window
                yield from self._send_ack(conn)
                yield from self.runtime.ops.broadcast(conn.established_cond)
            yield from self.input_mailbox.end_get(msg)
            return

        # --- data and FIN ------------------------------------------------------
        if payload_len > 0 or header.flags & TCP_FIN:
            yield from self._process_data(conn, header, msg, payload_len)
        else:
            yield from self.input_mailbox.end_get(msg)

    def _passive_open(
        self, listener: Listener, ip_header: IPv4Header, header: TCPHeader
    ) -> Generator:
        conn = TCPConnection(
            self,
            header.dst_port,
            ip_header.src,
            header.src_port,
            receive_mailbox=None,
        )
        conn.receive_mailbox = listener.mailbox_factory(conn)
        conn.state = TCPState.SYN_RCVD
        conn.irs = header.seq
        conn.rcv_nxt = seq_add(header.seq, 1)
        conn.snd_wnd = header.window
        conn._listener = listener
        self.connections[conn.four_tuple] = conn
        self.by_id[conn.conn_id] = conn
        yield from self._send_segment(conn, conn.snd_nxt, b"", TCP_SYN | TCP_ACK)
        conn.snd_nxt = seq_add(conn.snd_nxt, 1)
        self._arm_retransmit(conn)
        self.stats.add("tcp_passive_opens")

    def _process_ack(self, conn: TCPConnection, header: TCPHeader) -> Generator:
        ack = header.ack
        conn.snd_wnd = header.window
        conn.window_probes = 0  # any ACK proves the peer is alive
        if conn.snd_wnd > 0:
            self._zero_window_probes.pop(conn.conn_id, None)
        if not seq_gt(ack, conn.snd_una):
            return
        if seq_gt(ack, conn.snd_nxt):
            # Acking the future: ignore (stale/corrupt).
            return
        now = self.runtime.sim.now
        remaining = []
        for segment in conn.unacked:
            span = segment.length + (1 if segment.flags & (TCP_SYN | TCP_FIN) else 0)
            end = seq_add(segment.seq, span)
            if seq_le(end, ack):
                if segment.rtt_eligible:
                    conn.rtt.sample(now - segment.sent_ns)
            else:
                remaining.append(segment)
        conn.unacked = remaining
        conn.snd_una = ack
        conn.rto_deadline_ns = (
            None if not conn.unacked else now + conn.rtt.rto_ns
        )
        yield from self.runtime.ops.broadcast(conn.send_space_cond)

        # State transitions driven by our data being acknowledged.
        if conn.state is TCPState.SYN_RCVD and seq_gt(ack, conn.iss):
            conn.state = TCPState.ESTABLISHED
            listener = getattr(conn, "_listener", None)
            if listener is not None:
                listener.accepted.append(conn)
                yield from self.runtime.ops.broadcast(listener.accept_cond)
            yield from self.runtime.ops.broadcast(conn.established_cond)
        fin_acked = conn.fin_sent and conn.snd_una == conn.snd_nxt
        if conn.state is TCPState.FIN_WAIT_1 and fin_acked:
            conn.state = TCPState.FIN_WAIT_2
        elif conn.state is TCPState.CLOSING and fin_acked:
            self._enter_time_wait(conn)
        elif conn.state is TCPState.LAST_ACK and fin_acked:
            self._finish_close(conn)
        # More room may have opened: push queued data.
        if conn.send_buffer or (conn.fin_pending and not conn.fin_sent):
            yield from self._output(conn)

    def _process_data(
        self,
        conn: TCPConnection,
        header: TCPHeader,
        msg: Message,
        payload_len: int,
    ) -> Generator:
        seq = header.seq
        if conn.state not in (
            TCPState.ESTABLISHED,
            TCPState.FIN_WAIT_1,
            TCPState.FIN_WAIT_2,
        ):
            if conn.state is TCPState.TIME_WAIT and header.flags & TCP_FIN:
                # RFC 1122 4.2.2.13: a retransmitted FIN (our final ACK was
                # lost) restarts the 2MSL clock; the ACK below re-answers it.
                self._time_wait_deadlines[conn.conn_id] = (
                    self.runtime.sim.now + TIME_WAIT_NS
                )
            yield from self.input_mailbox.end_get(msg)
            yield from self._send_ack(conn)
            return

        if payload_len > 0:
            if seq == conn.rcv_nxt:
                # Fast path: in-order segment, delivered without a copy.
                conn.rcv_nxt = seq_add(conn.rcv_nxt, payload_len)
                msg.trim_front(IPv4Header.SIZE + TCPHeader.SIZE)
                yield from self.input_mailbox.enqueue(msg, conn.receive_mailbox)
                self.stats.add("tcp_bytes_in", payload_len)
                yield from self._deliver_drained(conn)
            elif seq_gt(seq, conn.rcv_nxt):
                # Out of order: stash a copy, dup-ACK.
                self.stats.add("tcp_out_of_order")
                data = msg.read(IPv4Header.SIZE + TCPHeader.SIZE, payload_len)
                yield self.costs.cab_memcpy_ns(payload_len)
                conn.stash_out_of_order(seq, data)
                yield from self.input_mailbox.end_get(msg)
            else:
                # Overlapping or duplicate.
                offset = (conn.rcv_nxt - seq) % (1 << 32)
                if offset < payload_len:
                    fresh = payload_len - offset
                    conn.rcv_nxt = seq_add(conn.rcv_nxt, fresh)
                    msg.trim_front(IPv4Header.SIZE + TCPHeader.SIZE + offset)
                    yield from self.input_mailbox.enqueue(msg, conn.receive_mailbox)
                    self.stats.add("tcp_bytes_in", fresh)
                    yield from self._deliver_drained(conn)
                else:
                    self.stats.add("tcp_duplicates")
                    yield from self.input_mailbox.end_get(msg)
        else:
            yield from self.input_mailbox.end_get(msg)

        # FIN processing: the FIN occupies the sequence slot after the data.
        if header.flags & TCP_FIN:
            fin_seq = seq_add(seq, payload_len)
            if fin_seq == conn.rcv_nxt and not conn.fin_received:
                conn.fin_received = True
                conn.rcv_nxt = seq_add(conn.rcv_nxt, 1)
                if conn.state is TCPState.ESTABLISHED:
                    conn.state = TCPState.CLOSE_WAIT
                elif conn.state is TCPState.FIN_WAIT_1:
                    # Our FIN not yet acked: simultaneous close.
                    if conn.fin_sent and conn.snd_una == conn.snd_nxt:
                        self._enter_time_wait(conn)
                    else:
                        conn.state = TCPState.CLOSING
                elif conn.state is TCPState.FIN_WAIT_2:
                    self._enter_time_wait(conn)
        yield from self._send_ack(conn)

    def _deliver_drained(self, conn: TCPConnection) -> Generator:
        """Deliver bytes that out-of-order stashes made contiguous."""
        drained = conn.drain_in_order()
        if not drained:
            return
        copy = yield from self.input_mailbox.ibegin_put(len(drained))
        if copy is None:
            # No buffer: pretend the bytes never arrived; peer retransmits.
            conn.rcv_nxt = (conn.rcv_nxt - len(drained)) % (1 << 32)
            conn.stash_out_of_order(conn.rcv_nxt, drained)
            return
        yield self.costs.cab_memcpy_ns(len(drained))
        copy.write(0, drained)
        yield from self.input_mailbox.ienqueue(copy, conn.receive_mailbox)
        self.stats.add("tcp_bytes_in", len(drained))

    # ============================================================ timer thread

    def _timer_thread(self) -> Generator:
        ops = self.runtime.ops
        while True:
            yield from ops.lock(self.lock)
            while not self._timer_has_work():
                yield from ops.wait(self._timer_work, self.lock)
            yield from ops.unlock(self.lock)
            yield from ops.sleep(TIMER_TICK_NS)
            yield from ops.lock(self.lock)
            yield from self._timer_scan()
            yield from ops.unlock(self.lock)

    def _timer_has_work(self) -> bool:
        if self._time_wait_deadlines or self._zero_window_probes:
            return True
        return any(conn.unacked for conn in self.by_id.values())

    def _timer_scan(self) -> Generator:
        now = self.runtime.sim.now
        for conn in list(self.by_id.values()):
            if (
                conn.unacked
                and conn.rto_deadline_ns is not None
                and now >= conn.rto_deadline_ns
            ):
                yield from self._retransmit(conn)
            probe_at = self._zero_window_probes.get(conn.conn_id)
            if probe_at is not None and now >= probe_at:
                yield from self._window_probe(conn)
        for conn_id, deadline in list(self._time_wait_deadlines.items()):
            if now >= deadline:
                del self._time_wait_deadlines[conn_id]
                conn = self.by_id.get(conn_id)
                if conn is not None:
                    self._finish_close(conn)

    def _retransmit(self, conn: TCPConnection) -> Generator:
        segment = conn.unacked[0]
        if segment.retransmits >= MAX_RETRANSMITS:
            self._abort(conn, "retransmission limit reached")
            return
        segment.retransmits += 1
        segment.rtt_eligible = False  # Karn's rule
        conn.rtt.backoff()
        conn.rto_deadline_ns = self.runtime.sim.now + conn.rtt.rto_ns
        self.stats.add("tcp_retransmits")
        tracer = self.runtime.tracer
        if tracer.sink is not None:
            tracer.emit("tcp", "retransmit", {"seq": segment.seq})
        yield from self._send_segment(
            conn, segment.seq, segment.data, segment.flags, track=False
        )

    def _window_probe(self, conn: TCPConnection) -> Generator:
        """Persist timer: poke a zero-window peer with one byte.

        Two escape hatches keep this from probing a dead peer forever:
        with nothing left to push the probe cycle simply stops (sending
        re-arms it), and after ``MAX_WINDOW_PROBES`` consecutive probes
        without hearing *any* ACK back the connection is aborted.
        """
        if conn.snd_wnd > 0 or conn.conn_id not in self._zero_window_probes:
            self._zero_window_probes.pop(conn.conn_id, None)
            conn.window_probes = 0
            return
        if not conn.send_buffer and not conn.unacked and not conn.fin_pending:
            # Nothing to push and nothing outstanding: probing serves no
            # purpose; stop instead of pinging a possibly-dead peer forever.
            del self._zero_window_probes[conn.conn_id]
            conn.window_probes = 0
            return
        conn.window_probes += 1
        if conn.window_probes > MAX_WINDOW_PROBES:
            self._abort(conn, "zero-window probe limit reached")
            return
        self._zero_window_probes[conn.conn_id] = (
            self.runtime.sim.now + conn.rtt.rto_ns
        )
        self.stats.add("tcp_window_probes")
        if conn.send_buffer:
            data = bytes(conn.send_buffer[:1])
            del conn.send_buffer[:1]
            yield from self._send_segment(conn, conn.snd_nxt, data, TCP_ACK | TCP_PSH)
            conn.snd_nxt = seq_add(conn.snd_nxt, 1)
            self._arm_retransmit(conn)
        else:
            yield from self._send_ack(conn)

    # ============================================================ teardown

    def _enter_time_wait(self, conn: TCPConnection) -> None:
        conn.state = TCPState.TIME_WAIT
        self._time_wait_deadlines[conn.conn_id] = self.runtime.sim.now + TIME_WAIT_NS
        self.runtime.ops.signal_nocost(self._timer_work)

    def _finish_close(self, conn: TCPConnection) -> None:
        conn.state = TCPState.CLOSED
        self._destroy(conn)

    def _abort(self, conn: TCPConnection, reason: str) -> None:
        self.stats.add("tcp_aborts")
        conn.error = reason
        conn.state = TCPState.CLOSED
        self._destroy(conn)

    def _destroy(self, conn: TCPConnection) -> None:
        self.connections.pop(conn.four_tuple, None)
        self.by_id.pop(conn.conn_id, None)
        self._time_wait_deadlines.pop(conn.conn_id, None)
        self._zero_window_probes.pop(conn.conn_id, None)
        conn.state = TCPState.CLOSED
        ops = self.runtime.ops
        ops.signal_nocost(conn.established_cond)
        ops.signal_nocost(conn.closed_cond)
        ops.signal_nocost(conn.send_space_cond)

    def _send_rst(
        self, ip_header: IPv4Header, header: TCPHeader, segment_len: int
    ) -> Generator:
        """Refuse a segment for which no connection exists."""
        self.stats.add("tcp_rsts_out")
        payload_len = segment_len - TCPHeader.SIZE
        ack = seq_add(header.seq, max(payload_len, 1))
        rst = TCPHeader(
            src_port=header.dst_port,
            dst_port=header.src_port,
            seq=header.ack if header.flags & TCP_ACK else 0,
            ack=ack,
            flags=TCP_RST | TCP_ACK,
            window=0,
        )
        segment = bytearray(rst.pack())
        if self.checksums:
            yield self.costs.cab_checksum_ns(len(segment))
            checksum = TCPHeader.compute_checksum(
                self.ip.address, ip_header.src, segment
            )
            segment[16:18] = checksum.to_bytes(2, "big")
        msg = yield from self.input_mailbox.ibegin_put(IPv4Header.SIZE + len(segment))
        if msg is None:
            return
        msg.write(IPv4Header.SIZE, segment)
        template = IPv4Header(src=0, dst=ip_header.src, protocol=IPPROTO_TCP)
        yield from self.ip.output(template, msg, free_after=True)
