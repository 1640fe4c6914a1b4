"""Property-based end-to-end tests: transports under adversarial networks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import CORRUPT, DROP, FaultPlan, FaultSpec
from repro.system import NectarSystem
from repro.units import seconds


def rig(mtu=9000):
    system = NectarSystem()
    hub = system.add_hub("hub0")
    a = system.add_node("cab-a", hub, 0, mtu=mtu)
    b = system.add_node("cab-b", hub, 1, mtu=mtu)
    return system, a, b


def lossy(system, kind, pct, seed):
    """Attach a plan firing ``kind`` on each frame with ``pct``% odds (a
    spec with no schedule would fire on every frame, so 0% has none)."""
    specs = [FaultSpec(kind, probability=pct / 100.0)] if pct else []
    system.attach_fault_plan(FaultPlan(seed, specs))


class TestTCPUnderLoss:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        drop_pct=st.integers(min_value=0, max_value=25),
        size=st.integers(min_value=1, max_value=20_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_stream_delivered_intact_and_in_order(self, seed, drop_pct, size):
        """Whatever the loss pattern, TCP delivers exactly the sent bytes."""
        system, a, b = rig()
        payload = bytes((i * 7 + seed) % 256 for i in range(size))
        server_inbox = b.runtime.mailbox("srv")
        b.tcp.listen(7000, lambda conn: server_inbox)
        done = system.sim.event()

        def client():
            inbox = a.runtime.mailbox("cli")
            conn = yield from a.tcp.connect(6000, b.ip_address, 7000, inbox)
            # Losses start after the handshake so connect() stays quick.
            lossy(system, DROP, drop_pct, seed)
            yield from a.tcp.send_direct(conn, payload)

        def collector():
            received = bytearray()
            while len(received) < len(payload):
                msg = yield from server_inbox.begin_get()
                received.extend(msg.read())
                yield from server_inbox.end_get(msg)
            done.succeed(bytes(received))

        a.runtime.fork_application(client(), "c")
        b.runtime.fork_application(collector(), "s")
        assert system.run_until(done, limit=seconds(600)) == payload


class TestRMPUnderCorruption:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        corrupt_pct=st.integers(min_value=0, max_value=30),
        count=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=15, deadline=None)
    def test_messages_delivered_exactly_once_in_order(self, seed, corrupt_pct, count):
        system, a, b = rig()
        lossy(system, CORRUPT, corrupt_pct, seed)
        inbox = b.runtime.mailbox("inbox")
        chan = a.rmp.open(100, b.node_id, 200)
        b.rmp.open(200, a.node_id, 100, deliver_mailbox=inbox)
        done = system.sim.event()

        def sender():
            for index in range(count):
                yield from a.rmp.send(chan, bytes([index]) * 200)

        def receiver():
            got = []
            for _ in range(count):
                msg = yield from inbox.begin_get()
                got.append(msg.read(0, 1)[0])
                yield from inbox.end_get(msg)
            done.succeed(got)

        a.runtime.fork_application(sender(), "s")
        b.runtime.fork_application(receiver(), "r")
        assert system.run_until(done, limit=seconds(600)) == list(range(count))
        # Exactly once: nothing extra queued afterwards.
        system.run(until=system.now + 10_000_000)
        assert len(inbox) == 0


class TestFragmentationUnderLoss:
    @given(
        size=st.integers(min_value=3_000, max_value=12_000),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    @settings(max_examples=10, deadline=None)
    def test_udp_reassembly_all_or_nothing(self, size, seed):
        """A fragmented datagram either arrives whole or not at all."""
        system, a, b = rig(mtu=2048)
        lossy(system, DROP, 15, seed)
        inbox = b.runtime.mailbox("inbox")
        b.udp.bind(99, inbox)
        payload = bytes((i + seed) % 256 for i in range(size))
        sent = system.sim.event()

        def sender():
            yield from a.udp.send(1, b.ip_address, 99, payload)
            sent.succeed()

        a.runtime.fork_application(sender(), "s")
        system.run_until(sent, limit=seconds(60))
        system.run(until=system.now + 50_000_000)
        if len(inbox) == 1:
            msg = inbox.queue[0]
            assert msg.read() == payload
        else:
            assert len(inbox) == 0
