"""Property tests: reliable transports survive seeded fault campaigns.

The exactly-once / in-order / bit-exact delivery invariant must hold for
every seed; retransmit counters must actually increment somewhere in the
sweep (proving the faults exercised the recovery paths, not clean air).
Also pins the bounded-retry escape hatches: a sender facing 100% loss must
give up with ProtocolError after exactly its documented retry budget.
"""

import pytest

from repro.errors import ProtocolError
from repro.faults.campaign import run_campaign
from repro.faults.plan import CORRUPT, DROP, STALL, FaultPlan, FaultSpec
from repro.hub.groups import GROUP_BASE
from repro.protocols.tcp.connection import MAX_RETRANSMITS
from repro.protocols.nectar.reqresp import RPC_MAX_TRIES
from repro.protocols.nectar.rmp import RMP_MAX_TRIES
from repro.system import NectarSystem
from repro.units import seconds, us
from tests.conftest import shrunk_case

SEEDS = range(1, 21)


def faulty_rig(plan):
    """Two CABs through one HUB with the given fault plan attached."""
    system = NectarSystem()
    hub = system.add_hub("hub0")
    a = system.add_node("cab-a", hub, 0)
    b = system.add_node("cab-b", hub, 1)
    system.attach_fault_plan(plan)
    return system, a, b


def lossy_plan(seed, p_drop=0.15, p_corrupt=0.1):
    """Independent per-frame drop + corruption on every link."""
    return FaultPlan(
        seed=seed,
        specs=(
            FaultSpec(kind=DROP, where="*", probability=p_drop),
            FaultSpec(kind=CORRUPT, where="*", probability=p_corrupt),
        ),
    )


class TestCampaignProperty:
    """The four-transport chaos campaign, on a shrunk load, holds its
    invariant on every seed."""

    def test_lossy_link_exactly_once_across_seeds(self):
        total_retransmissions = 0
        total_crc_drops = 0
        for seed in SEEDS:
            report = run_campaign(shrunk_case("lossy-link", seed))
            assert report.passed, f"seed {seed}:\n{report.render()}"
            total_retransmissions += report.retransmissions
            total_crc_drops += report.crc_drops
        assert total_retransmissions > 0
        assert total_crc_drops > 0

    @pytest.mark.parametrize(
        "scenario",
        ["bursty-corruption", "cab-blackout", "overloaded-fifo", "multicast-storm"],
    )
    def test_other_scenarios_hold_the_invariant(self, scenario):
        for seed in (1, 7, 13):
            report = run_campaign(shrunk_case(scenario, seed))
            assert report.passed, f"seed {seed}:\n{report.render()}"


class TestRMPProperty:
    """RMP delivers exactly once, in order, bit-exact, for every seed."""

    def test_exactly_once_in_order_across_seeds(self):
        total_retransmits = 0
        for seed in SEEDS:
            system, a, b = faulty_rig(lossy_plan(seed))
            inbox = b.runtime.mailbox("rmp-inbox")
            chan = a.rmp.open(100, b.node_id, 200)
            b.rmp.open(200, a.node_id, 100, deliver_mailbox=inbox)
            payloads = [bytes([i]) * (64 * (i + 1)) for i in range(6)]
            done = system.sim.event()

            def sender():
                for payload in payloads:
                    yield from a.rmp.send(chan, payload)

            def receiver():
                got = []
                for _ in payloads:
                    msg = yield from inbox.begin_get()
                    got.append(msg.read())
                    yield from inbox.end_get(msg)
                done.succeed(got)

            a.runtime.fork_application(sender(), "sender")
            b.runtime.fork_application(receiver(), "receiver")
            assert system.run_until(done, limit=seconds(30)) == payloads
            total_retransmits += a.runtime.stats.value("rmp_retransmits")
        assert total_retransmits > 0


class TestRequestResponseProperty:
    """RPC replies arrive exactly once and bit-exact for every seed."""

    def test_replies_bit_exact_across_seeds(self):
        from repro.protocols.headers import NectarTransportHeader

        total_retries = 0
        for seed in SEEDS:
            # RPC has the smallest retry budget (5 tries): keep the loss
            # mild enough that no fixed seed exhausts it.
            system, a, b = faulty_rig(lossy_plan(seed, p_drop=0.06, p_corrupt=0.04))
            server_mailbox = b.runtime.mailbox("rpc-server")
            b.rpc.serve(700, server_mailbox)
            requests = [b"req-%d" % i * 4 for i in range(5)]
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
                replies = []
                for request in requests:
                    reply = yield from a.rpc.request(port, b.node_id, 700, request)
                    replies.append(reply)
                done.succeed(replies)

            b.runtime.fork_system(server(), "server")
            a.runtime.fork_application(client(), "client")
            replies = system.run_until(done, limit=seconds(30))
            assert replies == [request.upper() for request in requests]
            total_retries += a.runtime.stats.value("rpc_retries")
        assert total_retries > 0


class TestTCPProperty:
    """The TCP byte stream survives loss bit-exact for every seed."""

    def test_stream_bit_exact_across_seeds(self):
        total_retransmits = 0
        payload = bytes(range(256)) * 12  # 3072 bytes
        for seed in SEEDS:
            system, a, b = faulty_rig(lossy_plan(seed, p_drop=0.1, p_corrupt=0.08))
            server_inbox = b.runtime.mailbox("srv-inbox")
            b.tcp.listen(7000, lambda conn: server_inbox)
            done = system.sim.event()

            def client():
                inbox = a.runtime.mailbox("cli-inbox")
                conn = yield from a.tcp.connect(6000, b.ip_address, 7000, inbox)
                yield from a.tcp.send_direct(conn, payload)

            def collector():
                received = bytearray()
                while len(received) < len(payload):
                    msg = yield from server_inbox.begin_get()
                    received.extend(msg.read())
                    yield from server_inbox.end_get(msg)
                done.succeed(bytes(received))

            a.runtime.fork_application(client(), "client")
            b.runtime.fork_application(collector(), "collector")
            assert system.run_until(done, limit=seconds(60)) == payload
            total_retransmits += a.runtime.stats.value("tcp_retransmits")
        assert total_retransmits > 0


class TestNMPProperty:
    """NMP multicast delivers exactly once, in order, to *every* member,
    for every seed — and tears down with zero live packet buffers."""

    def _run_multicast(self, plan, n_members=3, n_messages=5):
        system = NectarSystem()
        hub = system.add_hub("hub0")
        sender = system.add_node("cab-s", hub, 0)
        members = [
            system.add_node(f"cab-m{i}", hub, i + 1) for i in range(n_members)
        ]
        system.attach_fault_plan(plan)
        group_id = GROUP_BASE + 1
        system.network.groups.register(
            group_id, tuple(node.name for node in members)
        )
        payloads = [
            bytes([k + 1]) * (80 * (k % 3 + 1)) for k in range(n_messages)
        ]
        session = sender.nmp.open_sender(
            group_id, 0x4100, tuple(node.node_id for node in members)
        )
        received = {node.name: [] for node in members}

        def producer():
            for payload in payloads:
                yield from sender.nmp.send(session, payload)
            yield from sender.nmp.flush(session)

        for rank, node in enumerate(members):
            inbox = node.runtime.mailbox(f"inbox-{node.name}")
            node.nmp.join(group_id, 0x4100, rank, inbox)

            def collector(inbox=inbox, sink=received[node.name]):
                for _ in payloads:
                    msg = yield from inbox.begin_get()
                    sink.append(msg.read())
                    yield from inbox.end_get(msg)

            node.runtime.fork_application(collector(), f"recv-{node.name}")
        sender.runtime.fork_application(producer(), "send")
        system.run(until=seconds(30))
        return system, sender, members, payloads, received

    def test_exactly_once_in_order_under_loss_across_seeds(self):
        total_nacks = 0
        total_repairs = 0
        for seed in SEEDS:
            system, sender, members, payloads, received = self._run_multicast(
                lossy_plan(seed, p_drop=0.12, p_corrupt=0.08)
            )
            for node in members:
                assert received[node.name] == payloads, f"seed {seed} {node.name}"
            assert system.copy_meter.live_buffers == 0, f"seed {seed}"
            total_nacks += sum(
                node.runtime.stats.value("nmp_nacks_out") for node in members
            )
            total_repairs += sender.runtime.stats.value("nmp_repairs_out")
        assert total_nacks > 0
        assert total_repairs > 0

    def test_exactly_once_in_order_under_stall_and_loss_across_seeds(self):
        """Per-frame stalls jitter delivery spacing while drops open gaps;
        the receive window must still reassemble the exact stream."""
        for seed in SEEDS:
            plan = FaultPlan(
                seed=seed,
                specs=(
                    FaultSpec(
                        kind=STALL, where="cab-s", stall_ns=us(40), probability=0.5
                    ),
                    FaultSpec(kind=DROP, where="*", probability=0.08),
                ),
            )
            system, _sender, members, payloads, received = self._run_multicast(
                plan
            )
            for node in members:
                assert received[node.name] == payloads, f"seed {seed} {node.name}"
            assert system.copy_meter.live_buffers == 0, f"seed {seed}"


class TestBoundedRetry:
    """100% loss must end in ProtocolError, not an infinite retry loop."""

    def test_rmp_gives_up_after_exactly_max_tries(self):
        system, a, b = faulty_rig(
            FaultPlan(seed=1, specs=(FaultSpec(kind=DROP, where="cab-a", probability=1.0),))
        )
        chan = a.rmp.open(100, b.node_id, 200)
        done = system.sim.event()

        def sender():
            try:
                yield from a.rmp.send(chan, b"into the void")
            except ProtocolError as exc:
                done.succeed(str(exc))

        a.runtime.fork_application(sender(), "sender")
        message = system.run_until(done, limit=seconds(30))
        assert f"after {RMP_MAX_TRIES} tries" in message
        assert a.runtime.stats.value("rmp_data_out") == RMP_MAX_TRIES
        assert a.runtime.stats.value("rmp_retransmits") == RMP_MAX_TRIES - 1

    def test_rpc_gives_up_after_exactly_max_tries(self):
        """A silent server (nobody serves the port, so each request is
        dropped on arrival): the client sends exactly ``RPC_MAX_TRIES``
        requests, then raises."""
        system, a, b = faulty_rig(FaultPlan(seed=1))
        done = system.sim.event()

        def client():
            try:
                yield from a.rpc.request(
                    a.rpc.allocate_client_port(), b.node_id, 300, b"anyone?"
                )
            except ProtocolError as exc:
                done.succeed(str(exc))

        a.runtime.fork_application(client(), "client")
        message = system.run_until(done, limit=seconds(30))
        assert f"port 300 timed out after {RPC_MAX_TRIES} tries" in message
        assert a.runtime.stats.value("rpc_requests_out") == RPC_MAX_TRIES
        assert a.runtime.stats.value("rpc_retries") == RPC_MAX_TRIES - 1
        assert b.runtime.stats.value("rpc_no_port") == RPC_MAX_TRIES

    def test_tcp_connect_gives_up_after_exactly_max_retransmits(self):
        system, a, b = faulty_rig(
            FaultPlan(seed=1, specs=(FaultSpec(kind=DROP, where="cab-a", probability=1.0),))
        )
        done = system.sim.event()

        def client():
            inbox = a.runtime.mailbox("cli-inbox")
            try:
                yield from a.tcp.connect(6000, b.ip_address, 7000, inbox)
            except ProtocolError as exc:
                done.succeed(str(exc))

        a.runtime.fork_application(client(), "client")
        message = system.run_until(done, limit=seconds(60))
        assert "retransmission limit" in message
        assert a.runtime.stats.value("tcp_retransmits") == MAX_RETRANSMITS

    def test_rmp_out_of_window_data_at_fresh_receiver_is_silent(self):
        """Regression: seq>0 data at a recv_seq==0 receiver must not ACK.

        The re-ACK would carry sequence ``recv_seq - 1 == -1``, which the
        unsigned header encoding cannot represent (it used to crash the
        interrupt handler with struct.error).  The receiver now drops the
        packet silently and the sender's bounded retry raises.
        """
        system, a, b = faulty_rig(FaultPlan(seed=1, specs=()))
        inbox = b.runtime.mailbox("rmp-inbox")
        chan = a.rmp.open(100, b.node_id, 200)
        b.rmp.open(200, a.node_id, 100, deliver_mailbox=inbox)
        chan.send_seq = 5  # a restarted/skipped-ahead sender
        done = system.sim.event()

        def sender():
            try:
                yield from a.rmp.send(chan, b"future message")
            except ProtocolError as exc:
                done.succeed(str(exc))

        a.runtime.fork_application(sender(), "sender")
        message = system.run_until(done, limit=seconds(30))
        assert f"after {RMP_MAX_TRIES} tries" in message
        assert b.runtime.stats.value("rmp_out_of_window") == RMP_MAX_TRIES
        assert b.runtime.stats.value("rmp_acks_out") == 0
        assert len(inbox) == 0
