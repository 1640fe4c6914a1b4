"""Unit-level tests for the Nectar transport layer and its sub-protocols."""

import pytest

from repro.errors import ProtocolError
from repro.faults import DROP, FaultPlan, FaultSpec
from repro.protocols.headers import (
    NECTAR_KIND_ACK,
    NECTAR_KIND_ARRIVE,
    NECTAR_KIND_DATA,
    NECTAR_KIND_NACK,
    NECTAR_KIND_RELEASE,
    NECTAR_KIND_REPAIR,
    NECTAR_KIND_REQUEST,
    NECTAR_KIND_RESPONSE,
    NECTAR_KIND_SYNC,
    NECTAR_KIND_SYNC_ACK,
    NECTAR_PROTO_COLL,
    NECTAR_PROTO_DATAGRAM,
    NECTAR_PROTO_NMP,
    NECTAR_PROTO_REQRESP,
    NECTAR_PROTO_RMP,
    NectarTransportHeader,
    DL_TYPE_NECTAR,
)
from repro.protocols.nectar import PacketKind
from repro.runtime.mailbox import CACHED_BUFFER_BYTES
from repro.system import NectarSystem
from repro.units import ms, seconds


@pytest.fixture
def rig():
    system = NectarSystem()
    hub = system.add_hub("hub0")
    a = system.add_node("cab-a", hub, 0)
    b = system.add_node("cab-b", hub, 1)
    return system, a, b


class TestDemux:
    def test_unknown_subprotocol_dropped(self, rig):
        system, a, b = rig
        header = NectarTransportHeader(protocol=250, kind=0, dst_node=b.node_id)

        def sender():
            yield from a.datalink.send_raw(b.node_id, DL_TYPE_NECTAR, header.pack())

        a.runtime.fork_application(sender(), "s")
        system.run(until=ms(10))
        assert b.runtime.stats.value("nectar_unknown_protocol") == 1

    def test_truncated_header_dropped(self, rig):
        system, a, b = rig

        def sender():
            yield from a.datalink.send_raw(b.node_id, DL_TYPE_NECTAR, b"\x01\x02\x03")

        a.runtime.fork_application(sender(), "s")
        system.run(until=ms(10))
        assert b.runtime.stats.value("nectar_malformed") == 1

    def test_double_registration_rejected(self, rig):
        _system, a, _b = rig
        kind = PacketKind(lambda header: None, "rmp_no_port", lambda *args: iter(()))
        with pytest.raises(ProtocolError, match="already registered"):
            a.nectar.register(NECTAR_PROTO_RMP, 0, "rmp", {NECTAR_KIND_DATA: kind})

    #: A kind no sub-protocol registers.
    UNKNOWN_KIND = 0xFF

    @pytest.mark.parametrize(
        "protocol, kind, counter",
        [
            (NECTAR_PROTO_DATAGRAM, NECTAR_KIND_DATA, "datagram_no_port"),
            (NECTAR_PROTO_DATAGRAM, NECTAR_KIND_ACK, "datagram_malformed"),
            (NECTAR_PROTO_RMP, NECTAR_KIND_DATA, "rmp_no_port"),
            (NECTAR_PROTO_RMP, NECTAR_KIND_ACK, "rmp_no_port"),
            (NECTAR_PROTO_RMP, UNKNOWN_KIND, "rmp_malformed"),
            (NECTAR_PROTO_REQRESP, NECTAR_KIND_REQUEST, "rpc_no_port"),
            (NECTAR_PROTO_REQRESP, NECTAR_KIND_RESPONSE, "rpc_orphan_responses"),
            (NECTAR_PROTO_REQRESP, UNKNOWN_KIND, "rpc_malformed"),
            (NECTAR_PROTO_NMP, NECTAR_KIND_DATA, "nmp_no_port"),
            (NECTAR_PROTO_NMP, NECTAR_KIND_REPAIR, "nmp_no_port"),
            (NECTAR_PROTO_NMP, NECTAR_KIND_SYNC, "nmp_no_port"),
            (NECTAR_PROTO_NMP, NECTAR_KIND_NACK, "nmp_no_port"),
            (NECTAR_PROTO_NMP, NECTAR_KIND_SYNC_ACK, "nmp_no_port"),
            (NECTAR_PROTO_NMP, UNKNOWN_KIND, "nmp_malformed"),
            (NECTAR_PROTO_COLL, NECTAR_KIND_ARRIVE, "coll_no_group"),
            (NECTAR_PROTO_COLL, NECTAR_KIND_RELEASE, "coll_no_group"),
            (NECTAR_PROTO_COLL, UNKNOWN_KIND, "coll_malformed"),
        ],
    )
    def test_drop_counts_once_frees_and_stays_silent(self, rig, protocol, kind, counter):
        """A frame with no session or an unknown kind is counted once under
        its protocol's name, its buffer is freed, and nothing answers it."""
        system, a, b = rig
        system.run(until=ms(1))
        header = NectarTransportHeader(
            protocol=protocol, kind=kind, seq=3, src_port=7, dst_node=b.node_id, dst_port=9
        )
        counted = b.runtime.stats.value(counter)
        allocated = b.runtime.heap.allocation_count
        sent = b.cab.stats.value("frames_sent")

        # Past the input mailbox's cached buffer, so the frame takes a heap block.
        payload = bytes(CACHED_BUFFER_BYTES)

        def sender():
            yield from a.datalink.send_raw(b.node_id, DL_TYPE_NECTAR, header.pack() + payload)

        a.runtime.fork_application(sender(), "s")
        system.run(until=ms(10))
        assert b.cab.stats.value("frames_received") == 1
        assert b.runtime.stats.value(counter) == counted + 1
        assert b.runtime.heap.allocation_count == allocated
        assert b.cab.stats.value("frames_sent") == sent


class TestRMPEdges:
    def test_duplicate_data_reacked_not_redelivered(self, rig):
        """If an ACK is lost, the retransmitted DATA is dropped but re-ACKed."""
        system, a, b = rig

        class DropFirstAck:
            """Fault hook: drops the first ACK-sized frame at link egress."""

            dropped = 0

            def on_link_frame(self, src, dest, frame):
                # ACK frames are small (datalink header + 28-byte header).
                if frame.size < 60 and self.dropped == 0:
                    frame.drop = True
                    self.dropped += 1

            def link_delay_ns(self, src):
                return 0

        system.network.fault_hooks = DropFirstAck()
        inbox = b.runtime.mailbox("inbox")
        chan = a.rmp.open(100, b.node_id, 200)
        b.rmp.open(200, a.node_id, 100, deliver_mailbox=inbox)
        done = system.sim.event()

        def sender():
            yield from a.rmp.send(chan, b"only once" * 20)  # 180 B: bigger than an ACK
            done.succeed()

        a.runtime.fork_application(sender(), "s")
        system.run_until(done, limit=seconds(30))
        system.run(until=system.now + ms(5))
        # Delivered exactly once despite the retransmission.
        assert len(inbox) == 1
        assert b.runtime.stats.value("rmp_duplicates") == 1
        assert b.runtime.stats.value("rmp_acks_out") == 2

    def test_sender_gives_up_eventually(self, rig):
        system, a, b = rig
        system.attach_fault_plan(FaultPlan(1, [FaultSpec(DROP)]))  # every frame
        chan = a.rmp.open(100, b.node_id, 200)
        b.rmp.open(200, a.node_id, 100, deliver_mailbox=b.runtime.mailbox("inbox"))
        done = system.sim.event()

        def sender():
            try:
                yield from a.rmp.send(chan, b"doomed")
            except ProtocolError as exc:
                done.succeed(str(exc))

        a.runtime.fork_application(sender(), "s")
        assert "no ACK" in system.run_until(done, limit=seconds(60))

    def test_port_collision_rejected(self, rig):
        _system, a, b = rig
        a.rmp.open(100, b.node_id, 200)
        with pytest.raises(ProtocolError, match="already open"):
            a.rmp.open(100, b.node_id, 201)

    def test_unbound_port_ignored(self, rig):
        system, a, b = rig
        header = NectarTransportHeader(
            protocol=NECTAR_PROTO_RMP,
            kind=NECTAR_KIND_DATA,
            seq=0,
            dst_node=b.node_id,
            dst_port=9999,
        )

        def sender():
            yield from a.datalink.send_raw(
                b.node_id, DL_TYPE_NECTAR, header.pack() + b"orphan"
            )

        a.runtime.fork_application(sender(), "s")
        system.run(until=ms(10))
        assert b.runtime.stats.value("rmp_no_port") == 1

    def test_zero_copy_message_send(self, rig):
        """Sending a pre-built Message consumes its buffer without copying."""
        system, a, b = rig
        inbox = b.runtime.mailbox("inbox")
        chan = a.rmp.open(100, b.node_id, 200)
        b.rmp.open(200, a.node_id, 100, deliver_mailbox=inbox)
        done = system.sim.event()

        def sender():
            scratch = a.runtime.mailbox("scratch")
            msg = yield from scratch.begin_put(NectarTransportHeader.SIZE + 64)
            yield from a.runtime.fill_message(
                msg, b"Z" * 64, offset=NectarTransportHeader.SIZE
            )
            yield from a.rmp.send(chan, msg)

        def receiver():
            msg = yield from inbox.begin_get()
            done.succeed(msg.read())
            yield from inbox.end_get(msg)

        a.runtime.fork_application(sender(), "s")
        b.runtime.fork_application(receiver(), "r")
        assert system.run_until(done, limit=seconds(10)) == b"Z" * 64
        a.runtime.heap.check_invariants()


class TestRPCEdges:
    def test_duplicate_request_served_from_cache(self, rig):
        """A replayed request must not re-run the server handler."""
        system, a, b = rig

        # Frame order: request(1), response(2) -> drop the response.
        system.attach_fault_plan(FaultPlan(1, [FaultSpec(DROP, nth=2)]))
        server_mailbox = b.runtime.mailbox("rpc-server")
        b.rpc.serve(700, server_mailbox)
        done = system.sim.event()
        handled = []

        def server():
            while True:
                msg = yield from server_mailbox.begin_get()
                header = NectarTransportHeader.unpack(
                    msg.read(0, NectarTransportHeader.SIZE)
                )
                handled.append(header.seq)
                yield from server_mailbox.end_get(msg)
                yield from b.rpc.respond(header, b"done")

        def client():
            port = a.rpc.allocate_client_port()
            reply = yield from a.rpc.request(port, b.node_id, 700, b"work")
            done.succeed(reply)

        b.runtime.fork_system(server(), "srv")
        a.runtime.fork_application(client(), "cli")
        assert system.run_until(done, limit=seconds(60)) == b"done"
        # The handler ran exactly once; the retry hit the response cache.
        assert len(handled) == 1
        assert b.runtime.stats.value("rpc_duplicate_requests") >= 1

    def test_request_to_unserved_port_times_out(self, rig):
        system, a, b = rig
        done = system.sim.event()

        def client():
            port = a.rpc.allocate_client_port()
            try:
                yield from a.rpc.request(port, b.node_id, 12345, b"?")
            except ProtocolError as exc:
                done.succeed(str(exc))

        a.runtime.fork_application(client(), "cli")
        assert "timed out" in system.run_until(done, limit=seconds(60))
        assert b.runtime.stats.value("rpc_no_port") >= 1

    def test_client_ports_unique(self, rig):
        _system, a, _b = rig
        ports = {a.rpc.allocate_client_port() for _ in range(100)}
        assert len(ports) == 100
