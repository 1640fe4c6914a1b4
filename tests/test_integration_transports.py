"""End-to-end integration tests: full stacks on two CABs through a HUB."""

import pytest

from repro.faults import CORRUPT, DROP, FaultPlan, FaultSpec
from repro.protocols.headers import NectarTransportHeader
from repro.system import NectarSystem
from repro.units import ms, seconds


@pytest.fixture
def system():
    system = NectarSystem()
    hub = system.add_hub("hub0")
    system.add_node("cab-a", hub, 0)
    system.add_node("cab-b", hub, 1)
    return system


def finish(system, done, limit=seconds(10)):
    return system.run_until(done, limit=limit)


class TestDatagram:
    def test_one_way_delivery(self, system):
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        inbox = b.runtime.mailbox("user-inbox")
        b.datagram.bind(500, inbox)
        done = system.sim.event()
        payload = b"hello nectar datagram"

        def sender():
            yield from a.datagram.send(1, b.node_id, 500, payload)

        def receiver():
            msg = yield from inbox.begin_get()
            data = msg.read()
            yield from inbox.end_get(msg)
            done.succeed(data)

        a.runtime.fork_application(sender(), "sender")
        b.runtime.fork_application(receiver(), "receiver")
        assert finish(system, done) == payload

    def test_unbound_port_drops(self, system):
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        done = system.sim.event()

        def sender():
            yield from a.datagram.send(1, b.node_id, 999, b"nobody home")
            done.succeed()

        a.runtime.fork_application(sender(), "sender")
        finish(system, done)
        system.run(until=system.now + ms(1))
        assert b.runtime.stats.value("datagram_no_port") == 1

    def test_ping_pong_many(self, system):
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        a_inbox = a.runtime.mailbox("a-inbox")
        b_inbox = b.runtime.mailbox("b-inbox")
        a.datagram.bind(10, a_inbox)
        b.datagram.bind(20, b_inbox)
        done = system.sim.event()
        rounds = 20

        def client():
            for index in range(rounds):
                yield from a.datagram.send(10, b.node_id, 20, bytes([index]) * 8)
                msg = yield from a_inbox.begin_get()
                assert msg.read(0, 1)[0] == index
                yield from a_inbox.end_get(msg)
            done.succeed(system.now)

        def echo_server():
            while True:
                msg = yield from b_inbox.begin_get()
                data = msg.read()
                yield from b_inbox.end_get(msg)
                yield from b.datagram.send(20, a.node_id, 10, data)

        a.runtime.fork_application(client(), "client")
        b.runtime.fork_system(echo_server(), "echo")
        finish(system, done)
        assert a.runtime.stats.value("datagram_in") == rounds


class TestRMP:
    def test_reliable_delivery(self, system):
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        inbox = b.runtime.mailbox("rmp-inbox")
        a_chan = a.rmp.open(100, b.node_id, 200)
        b.rmp.open(200, a.node_id, 100, deliver_mailbox=inbox)
        done = system.sim.event()
        payloads = [bytes([i]) * (100 * (i + 1)) for i in range(5)]

        def sender():
            for payload in payloads:
                yield from a.rmp.send(a_chan, payload)

        def receiver():
            got = []
            for _ in payloads:
                msg = yield from inbox.begin_get()
                got.append(msg.read())
                yield from inbox.end_get(msg)
            done.succeed(got)

        a.runtime.fork_application(sender(), "sender")
        b.runtime.fork_application(receiver(), "receiver")
        assert finish(system, done) == payloads

    def test_recovers_from_corruption(self, system):
        """A corrupted frame is dropped by the CRC check; RMP retransmits."""
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        system.attach_fault_plan(FaultPlan(1, [FaultSpec(CORRUPT, every_nth=3)]))
        inbox = b.runtime.mailbox("rmp-inbox")
        a_chan = a.rmp.open(100, b.node_id, 200)
        b.rmp.open(200, a.node_id, 100, deliver_mailbox=inbox)
        done = system.sim.event()
        count = 10

        def sender():
            for index in range(count):
                yield from a.rmp.send(a_chan, bytes([index]) * 64)

        def receiver():
            got = []
            for _ in range(count):
                msg = yield from inbox.begin_get()
                got.append(msg.read(0, 1)[0])
                yield from inbox.end_get(msg)
            done.succeed(got)

        a.runtime.fork_application(sender(), "sender")
        b.runtime.fork_application(receiver(), "receiver")
        assert finish(system, done, limit=seconds(30)) == list(range(count))
        assert system.faults.stats.value("fault_corrupt") > 0
        total_crc_drops = (
            a.cab.stats.value("crc_errors") + b.cab.stats.value("crc_errors")
        )
        assert total_crc_drops > 0
        assert a.runtime.stats.value("rmp_retransmits") > 0

    def test_recovers_from_drops(self, system):
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        system.attach_fault_plan(FaultPlan(1, [FaultSpec(DROP, every_nth=4)]))
        inbox = b.runtime.mailbox("rmp-inbox")
        a_chan = a.rmp.open(100, b.node_id, 200)
        b.rmp.open(200, a.node_id, 100, deliver_mailbox=inbox)
        done = system.sim.event()
        count = 8

        def sender():
            for index in range(count):
                yield from a.rmp.send(a_chan, bytes([index]) * 32)

        def receiver():
            got = []
            for _ in range(count):
                msg = yield from inbox.begin_get()
                got.append(msg.read(0, 1)[0])
                yield from inbox.end_get(msg)
            done.succeed(got)

        a.runtime.fork_application(sender(), "sender")
        b.runtime.fork_application(receiver(), "receiver")
        assert finish(system, done, limit=seconds(30)) == list(range(count))
        assert system.faults.stats.value("fault_drop") > 0


class TestRequestResponse:
    def test_rpc_roundtrip(self, system):
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        server_mailbox = b.runtime.mailbox("rpc-server")
        b.rpc.serve(700, server_mailbox)
        done = system.sim.event()

        def server():
            while True:
                msg = yield from server_mailbox.begin_get()
                header = NectarTransportHeader.unpack(
                    msg.read(0, NectarTransportHeader.SIZE)
                )
                body = msg.read(NectarTransportHeader.SIZE)
                yield from server_mailbox.end_get(msg)
                yield from b.rpc.respond(header, body.upper())

        def client():
            port = a.rpc.allocate_client_port()
            reply = yield from a.rpc.request(port, b.node_id, 700, b"compute this")
            done.succeed(reply)

        b.runtime.fork_system(server(), "server")
        a.runtime.fork_application(client(), "client")
        assert finish(system, done) == b"COMPUTE THIS"

    def test_rpc_retries_after_drop(self, system):
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        # Drop the first two frames (the request, then the replayed
        # response): the client must retry until a full exchange survives.
        system.attach_fault_plan(FaultPlan(1, [FaultSpec(DROP, max_fires=2)]))
        server_mailbox = b.runtime.mailbox("rpc-server")
        b.rpc.serve(700, server_mailbox)
        done = system.sim.event()

        def server():
            while True:
                msg = yield from server_mailbox.begin_get()
                header = NectarTransportHeader.unpack(
                    msg.read(0, NectarTransportHeader.SIZE)
                )
                yield from server_mailbox.end_get(msg)
                yield from b.rpc.respond(header, b"pong")

        def client():
            port = a.rpc.allocate_client_port()
            reply = yield from a.rpc.request(port, b.node_id, 700, b"ping")
            done.succeed(reply)

        b.runtime.fork_system(server(), "server")
        a.runtime.fork_application(client(), "client")
        assert finish(system, done, limit=seconds(30)) == b"pong"
        assert a.runtime.stats.value("rpc_retries") > 0
        assert system.faults.stats.value("fault_drop") == 2


class TestUDP:
    def test_datagram_delivery(self, system):
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        inbox = b.runtime.mailbox("udp-user")
        b.udp.bind(5353, inbox)
        done = system.sim.event()
        payload = b"udp over nectar" * 10

        def sender():
            yield from a.udp.send(1111, b.ip_address, 5353, payload)

        def receiver():
            msg = yield from inbox.begin_get()
            data = msg.read()
            yield from inbox.end_get(msg)
            done.succeed(data)

        a.runtime.fork_application(sender(), "sender")
        b.runtime.fork_application(receiver(), "receiver")
        assert finish(system, done) == payload
        assert b.runtime.stats.value("udp_in") == 1

    def test_corrupted_udp_dropped_by_crc(self, system):
        """Corruption on the wire is caught by the CAB CRC (below UDP)."""
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        # A spec with no schedule fires on every frame: corrupt everything.
        system.attach_fault_plan(FaultPlan(1, [FaultSpec(CORRUPT)]))
        inbox = b.runtime.mailbox("udp-user")
        b.udp.bind(5353, inbox)
        done = system.sim.event()

        def sender():
            yield from a.udp.send(1111, b.ip_address, 5353, b"doomed")
            done.succeed()

        a.runtime.fork_application(sender(), "sender")
        finish(system, done)
        system.run(until=system.now + ms(2))
        assert len(inbox) == 0
        assert b.cab.stats.value("crc_errors") == 1

    def test_large_datagram_fragments_and_reassembles(self, system):
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        inbox = b.runtime.mailbox("udp-user")
        b.udp.bind(5353, inbox)
        done = system.sim.event()
        # Bigger than the 9000-byte MTU: must fragment.
        payload = bytes(range(256)) * 64  # 16 KB

        def sender():
            yield from a.udp.send(1111, b.ip_address, 5353, payload)

        def receiver():
            msg = yield from inbox.begin_get()
            data = msg.read()
            yield from inbox.end_get(msg)
            done.succeed(data)

        a.runtime.fork_application(sender(), "sender")
        b.runtime.fork_application(receiver(), "receiver")
        assert finish(system, done) == payload
        assert a.runtime.stats.value("ip_fragments_out") >= 2
        assert b.runtime.stats.value("ip_reassembled") == 1


class TestICMP:
    def test_ping(self, system):
        a, b = system.nodes["cab-a"], system.nodes["cab-b"]
        done = system.sim.event()
        replies = []
        a.icmp.on_echo_reply = lambda header, payload: (
            replies.append((header.sequence, payload)),
            done.succeed(),
        )

        def pinger():
            yield from a.icmp.send_echo_request(
                b.ip_address, identifier=7, sequence=1, payload=b"ping!"
            )

        a.runtime.fork_application(pinger(), "pinger")
        finish(system, done)
        assert replies == [(1, b"ping!")]
        assert b.runtime.stats.value("icmp_echo_requests_in") == 1
        assert a.runtime.stats.value("icmp_echo_replies_in") == 1
