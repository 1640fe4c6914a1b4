"""End-to-end TCP tests: handshake, data transfer, loss recovery, teardown."""

import pytest

from repro.faults import DROP, FaultPlan, FaultSpec
from repro.protocols.headers import (
    DL_TYPE_IP,
    IPPROTO_TCP,
    TCP_RST,
    IPv4Header,
    TCPHeader,
)
from repro.protocols.tcp.connection import TCPState
from repro.system import NectarSystem
from repro.units import ms, seconds


@pytest.fixture
def system():
    system = NectarSystem()
    hub = system.add_hub("hub0")
    system.add_node("cab-a", hub, 0)
    system.add_node("cab-b", hub, 1)
    return system


def collect_stream(node, mailbox, nbytes, done, sim):
    """Server loop: read nbytes from a receive mailbox, then fire done."""

    def body():
        received = bytearray()
        while len(received) < nbytes:
            msg = yield from mailbox.begin_get()
            received.extend(msg.read())
            yield from mailbox.end_get(msg)
        done.succeed(bytes(received))

    return body


class TestTCPBasics:
    def test_handshake_and_small_transfer(self, system):
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        payload = b"tcp over the nectar communication processor"
        done = system.sim.event()

        server_inbox = b.runtime.mailbox("srv-inbox")
        listener = b.tcp.listen(7000, lambda conn: server_inbox)

        def server():
            conn = yield from b.tcp.accept(listener)
            assert conn.state is TCPState.ESTABLISHED

        def client():
            inbox = a.runtime.mailbox("cli-inbox")
            conn = yield from a.tcp.connect(6000, b.ip_address, 7000, inbox)
            assert conn.state is TCPState.ESTABLISHED
            yield from a.tcp.send(conn, payload)

        b.runtime.fork_application(server(), "server")
        a.runtime.fork_application(client(), "client")
        b.runtime.fork_application(
            collect_stream(b, server_inbox, len(payload), done, system.sim)(),
            "collector",
        )
        assert system.run_until(done, limit=seconds(10)) == payload

    def test_bulk_transfer_many_segments(self, system):
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        payload = bytes(range(256)) * 200  # 51200 bytes, several MSS segments
        done = system.sim.event()

        server_inbox = b.runtime.mailbox("srv-inbox")
        listener = b.tcp.listen(7000, lambda conn: server_inbox)

        def client():
            inbox = a.runtime.mailbox("cli-inbox")
            conn = yield from a.tcp.connect(6000, b.ip_address, 7000, inbox)
            # Direct path: CAB-resident sender bypasses the send thread.
            yield from a.tcp.send_direct(conn, payload)

        a.runtime.fork_application(client(), "client")
        b.runtime.fork_application(
            collect_stream(b, server_inbox, len(payload), done, system.sim)(),
            "collector",
        )
        assert system.run_until(done, limit=seconds(30)) == payload
        # 51200 bytes over an 8960-byte MSS: at least 6 data segments.
        assert a.runtime.stats.value("tcp_segments_out") >= 6

    def test_send_via_request_mailbox(self, system):
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        payload = b"x" * 5000
        done = system.sim.event()

        server_inbox = b.runtime.mailbox("srv-inbox")
        b.tcp.listen(7000, lambda conn: server_inbox)

        def client():
            inbox = a.runtime.mailbox("cli-inbox")
            conn = yield from a.tcp.connect(6000, b.ip_address, 7000, inbox)
            yield from a.tcp.send(conn, payload)

        a.runtime.fork_application(client(), "client")
        b.runtime.fork_application(
            collect_stream(b, server_inbox, len(payload), done, system.sim)(),
            "collector",
        )
        assert system.run_until(done, limit=seconds(30)) == payload

    def test_bidirectional_transfer(self, system):
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        to_server = b"client speaks " * 100
        to_client = b"server answers " * 100
        done_server = system.sim.event()
        done_client = system.sim.event()

        server_inbox = b.runtime.mailbox("srv-inbox")
        listener = b.tcp.listen(7000, lambda conn: server_inbox)
        client_inbox = a.runtime.mailbox("cli-inbox")

        def server():
            conn = yield from b.tcp.accept(listener)
            yield from b.tcp.send_direct(conn, to_client)

        def client():
            conn = yield from a.tcp.connect(6000, b.ip_address, 7000, client_inbox)
            yield from a.tcp.send_direct(conn, to_server)

        a.runtime.fork_application(client(), "client")
        b.runtime.fork_application(server(), "server")
        b.runtime.fork_application(
            collect_stream(b, server_inbox, len(to_server), done_server, system.sim)(),
            "srv-collect",
        )
        a.runtime.fork_application(
            collect_stream(a, client_inbox, len(to_client), done_client, system.sim)(),
            "cli-collect",
        )
        assert system.run_until(done_server, limit=seconds(30)) == to_server
        assert system.run_until(done_client, limit=seconds(30)) == to_client

    def test_connect_to_closed_port_fails(self, system):
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        done = system.sim.event()

        def client():
            inbox = a.runtime.mailbox("cli-inbox")
            try:
                yield from a.tcp.connect(6000, b.ip_address, 7999, inbox)
            except Exception as exc:
                done.succeed(str(exc))

        a.runtime.fork_application(client(), "client")
        message = system.run_until(done, limit=seconds(30))
        assert "reset" in message
        assert b.runtime.stats.value("tcp_rsts_out") == 1


class TestTCPTeardown:
    def test_orderly_close_both_sides(self, system):
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        done = system.sim.event()

        server_inbox = b.runtime.mailbox("srv-inbox")
        listener = b.tcp.listen(7000, lambda conn: server_inbox)

        def server():
            conn = yield from b.tcp.accept(listener)
            # Read the one message, then close our side too.
            msg = yield from server_inbox.begin_get()
            yield from server_inbox.end_get(msg)
            # Wait for the peer's FIN to move us to CLOSE_WAIT.
            while conn.state is TCPState.ESTABLISHED:
                yield from b.runtime.ops.sleep(ms(1))
            yield from b.tcp.close(conn)
            yield from b.tcp.wait_closed(conn)
            done.succeed((conn.state, system.now))

        def client():
            inbox = a.runtime.mailbox("cli-inbox")
            conn = yield from a.tcp.connect(6000, b.ip_address, 7000, inbox)
            yield from a.tcp.send_direct(conn, b"goodbye")
            yield from a.tcp.close(conn)

        b.runtime.fork_application(server(), "server")
        a.runtime.fork_application(client(), "client")
        state, _t = system.run_until(done, limit=seconds(30))
        assert state is TCPState.CLOSED
        # Server's connection table must be clean.
        assert not b.tcp.connections

    def test_time_wait_on_active_closer(self, system):
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        done = system.sim.event()

        server_inbox = b.runtime.mailbox("srv-inbox")
        listener = b.tcp.listen(7000, lambda conn: server_inbox)

        def server():
            conn = yield from b.tcp.accept(listener)
            while conn.state is TCPState.ESTABLISHED:
                yield from b.runtime.ops.sleep(ms(1))
            yield from b.tcp.close(conn)

        def client():
            inbox = a.runtime.mailbox("cli-inbox")
            conn = yield from a.tcp.connect(6000, b.ip_address, 7000, inbox)
            yield from a.tcp.close(conn)
            yield from a.tcp.wait_closed(conn)
            done.succeed(conn.state)

        b.runtime.fork_application(server(), "server")
        a.runtime.fork_application(client(), "client")
        assert system.run_until(done, limit=seconds(30)) is TCPState.CLOSED

    def test_retransmitted_fin_in_time_wait_restarts_2msl(self, system):
        """RFC 1122 4.2.2.13: if our final ACK is lost, the peer
        retransmits its FIN; the TIME_WAIT side must re-ACK it *and*
        restart the 2MSL clock so the re-ACK has time to land."""
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        done = system.sim.event()
        holder = {"conn": None, "dropped": 0}

        class DropFinalAck:
            """Fault hook: the first frame transmitted once the active
            closer sits in TIME_WAIT is its ACK of the peer's FIN; drop
            exactly that."""

            def on_link_frame(self, src, dest, frame):
                conn = holder["conn"]
                if (
                    conn is not None
                    and conn.state is TCPState.TIME_WAIT
                    and not holder["dropped"]
                ):
                    frame.drop = True
                    holder["dropped"] += 1

            def link_delay_ns(self, src):
                return 0

        system.network.fault_hooks = DropFinalAck()

        server_inbox = b.runtime.mailbox("srv-inbox")
        listener = b.tcp.listen(7000, lambda conn: server_inbox)

        def server():
            conn = yield from b.tcp.accept(listener)
            while conn.state is TCPState.ESTABLISHED:
                yield from b.runtime.ops.sleep(ms(1))
            yield from b.tcp.close(conn)
            yield from b.tcp.wait_closed(conn)

        def client():
            inbox = a.runtime.mailbox("cli-inbox")
            conn = yield from a.tcp.connect(6000, b.ip_address, 7000, inbox)
            holder["conn"] = conn
            yield from a.tcp.close(conn)
            while conn.state is not TCPState.TIME_WAIT:
                yield from a.runtime.ops.sleep(ms(1))
            first_deadline = a.tcp._time_wait_deadlines[conn.conn_id]
            # Wait for the retransmitted FIN to arrive and re-arm 2MSL.
            while (
                a.tcp._time_wait_deadlines.get(conn.conn_id) == first_deadline
            ):
                yield from a.runtime.ops.sleep(ms(1))
            second_deadline = a.tcp._time_wait_deadlines[conn.conn_id]
            yield from a.tcp.wait_closed(conn)
            done.succeed((first_deadline, second_deadline, conn.state))

        b.runtime.fork_application(server(), "server")
        a.runtime.fork_application(client(), "client")
        first, second, state = system.run_until(done, limit=seconds(30))
        assert holder["dropped"] == 1
        assert second > first  # the 2MSL clock restarted
        assert state is TCPState.CLOSED
        assert not a.tcp.connections and not b.tcp.connections


class TestTCPRecovery:
    def test_recovers_from_drops(self, system):
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        payload = bytes(range(256)) * 40  # 10240 bytes
        done = system.sim.event()

        server_inbox = b.runtime.mailbox("srv-inbox")
        b.tcp.listen(7000, lambda conn: server_inbox)

        def client():
            inbox = a.runtime.mailbox("cli-inbox")
            conn = yield from a.tcp.connect(6000, b.ip_address, 7000, inbox)
            # Arm the plan only after the handshake so SYNs get through
            # quickly; data and ACK frames then suffer 20% loss.
            system.attach_fault_plan(
                FaultPlan(42, [FaultSpec(DROP, probability=0.2)])
            )
            yield from a.tcp.send_direct(conn, payload)

        a.runtime.fork_application(client(), "client")
        b.runtime.fork_application(
            collect_stream(b, server_inbox, len(payload), done, system.sim)(),
            "collector",
        )
        assert system.run_until(done, limit=seconds(60)) == payload
        assert a.runtime.stats.value("tcp_retransmits") > 0

    def test_reassembles_segments_that_overtake_a_lost_one(self, system):
        """Five segments (MSS is 8,960 B); the second is dropped, so later
        ones arrive first and wait in the out-of-order queue until the one
        retransmission fills the hole."""
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        payload = bytes(range(256)) * 160  # 40960 bytes
        done = system.sim.event()

        server_inbox = b.runtime.mailbox("srv-inbox")
        b.tcp.listen(7000, lambda conn: server_inbox)

        def client():
            inbox = a.runtime.mailbox("cli-inbox")
            conn = yield from a.tcp.connect(6000, b.ip_address, 7000, inbox)
            system.attach_fault_plan(
                FaultPlan(1, [FaultSpec(DROP, where="cab-a", nth=2)])
            )
            yield from a.tcp.send_direct(conn, payload)

        a.runtime.fork_application(client(), "client")
        b.runtime.fork_application(
            collect_stream(b, server_inbox, len(payload), done, system.sim)(),
            "collector",
        )
        assert system.run_until(done, limit=seconds(60)) == payload
        assert b.runtime.stats.value("tcp_out_of_order") > 0
        assert a.runtime.stats.value("tcp_retransmits") == 1

    def test_checksum_catches_corruption_that_crc_misses(self, system):
        """Direct unit-ish check: a corrupted segment fails TCP verify.

        (On the real path the CAB CRC catches wire corruption first; the TCP
        checksum guards the DMA/memory path end-to-end.)
        """
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        payload = bytes(range(256)) * 8
        done = system.sim.event()

        server_inbox = b.runtime.mailbox("srv-inbox")
        b.tcp.listen(7000, lambda conn: server_inbox)

        def client():
            inbox = a.runtime.mailbox("cli-inbox")
            conn = yield from a.tcp.connect(6000, b.ip_address, 7000, inbox)
            yield from a.tcp.send_direct(conn, payload)

        a.runtime.fork_application(client(), "client")
        b.runtime.fork_application(
            collect_stream(b, server_inbox, len(payload), done, system.sim)(),
            "collector",
        )
        assert system.run_until(done, limit=seconds(30)) == payload
        # Every data segment carried a verified software checksum.
        assert b.runtime.stats.value("tcp_segments_in") > 0
        assert b.runtime.stats.value("tcp_bad_checksum") == 0


class TestTCPNoChecksumMode:
    def test_checksum_free_stack_works(self):
        """The 'TCP w/o checksum' configuration of Fig. 7 still transfers."""
        system = NectarSystem()
        hub = system.add_hub("hub0")
        a = system.add_node("cab-a", hub, 0, tcp_checksums=False)
        b = system.add_node("cab-b", hub, 1, tcp_checksums=False)
        payload = b"no software checksum" * 50
        done = system.sim.event()

        server_inbox = b.runtime.mailbox("srv-inbox")
        b.tcp.listen(7000, lambda conn: server_inbox)

        def client():
            inbox = a.runtime.mailbox("cli-inbox")
            conn = yield from a.tcp.connect(6000, b.ip_address, 7000, inbox)
            yield from a.tcp.send_direct(conn, payload)

        a.runtime.fork_application(client(), "client")
        b.runtime.fork_application(
            collect_stream(b, server_inbox, len(payload), done, system.sim)(),
            "collector",
        )
        assert system.run_until(done, limit=seconds(30)) == payload


class TestTCPChecksumZeroRule:
    """TCP verifies every segment: a zero checksum field is not "unchecked"
    (RFC 768 grants that to UDP only)."""

    @staticmethod
    def _inject(system, segment):
        """Deliver one hand-built TCP segment from cab-a to cab-b's TCP input.

        The segment carries RST so the (connectionless) receiver drops it
        quietly after the checksum decision instead of answering.
        """
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        ip_header = IPv4Header(
            src=a.ip_address,
            dst=b.ip_address,
            protocol=IPPROTO_TCP,
            total_length=IPv4Header.SIZE + len(segment),
        )
        packet = ip_header.pack() + bytes(segment)

        def sender():
            yield from a.datalink.send_raw(b.node_id, DL_TYPE_IP, packet)

        a.runtime.fork_application(sender(), "inject")
        system.run(until=ms(10))
        return b.runtime.stats

    @staticmethod
    def _segment(payload):
        header = TCPHeader(
            src_port=6000, dst_port=7000, seq=1, ack=0, flags=TCP_RST, window=0
        )
        return bytearray(header.pack() + payload)

    @pytest.mark.parametrize("field", [0xFFFF, 0x0000])
    def test_segment_whose_checksum_computes_to_zero_is_accepted(self, system, field):
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        segment = self._segment(b"payload!\x00\x00")
        # Choose the last word so the whole sum inverts to 0.
        segment[-2:] = TCPHeader.compute_checksum(
            a.ip_address, b.ip_address, segment
        ).to_bytes(2, "big")
        # What the sender now emits for it is 0xFFFF; 0 is the same number
        # in one's complement, so the receiver needs no special case.
        assert TCPHeader.compute_checksum(a.ip_address, b.ip_address, segment) == 0xFFFF
        segment[16:18] = field.to_bytes(2, "big")
        stats = self._inject(system, segment)
        assert stats.value("tcp_segments_in") == 1
        assert stats.value("tcp_bad_checksum") == 0

    def test_zero_field_over_corrupt_payload_is_rejected(self, system):
        segment = self._segment(b"no checksum was ever computed over this")
        assert segment[16:18] == b"\x00\x00"
        stats = self._inject(system, segment)
        assert stats.value("tcp_bad_checksum") == 1
        assert stats.value("tcp_segments_in") == 0
