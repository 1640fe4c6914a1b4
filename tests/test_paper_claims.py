"""Direct tests of scattered qualitative claims in the paper's text."""

import pytest

from repro.system import NectarSystem
from repro.units import ms, seconds, us


def rig():
    system = NectarSystem()
    hub = system.add_hub("hub0")
    a = system.add_node("cab-a", hub, 0)
    b = system.add_node("cab-b", hub, 1)
    return system, a, b


def _datagram_rtt(system, a, b, rounds=10, warmup=3):
    a_inbox = a.runtime.mailbox("pc-a")
    b_inbox = b.runtime.mailbox("pc-b")
    a.datagram.bind(0x30, a_inbox)
    b.datagram.bind(0x31, b_inbox)
    done = system.sim.event()
    samples = []

    def client():
        for index in range(rounds):
            start = system.now
            yield from a.datagram.send(0x30, b.node_id, 0x31, b"x" * 32)
            msg = yield from a_inbox.begin_get()
            yield from a_inbox.end_get(msg)
            if index >= warmup:
                samples.append(system.now - start)
        done.succeed()

    def echo():
        while True:
            msg = yield from b_inbox.begin_get()
            data = msg.read()
            yield from b_inbox.end_get(msg)
            yield from b.datagram.send(0x31, a.node_id, 0x30, data)

    a.runtime.fork_application(client(), "client")
    b.runtime.fork_system(echo(), "echo")
    system.run_until(done, limit=seconds(60))
    return sum(samples) / len(samples)


class TestPreemptivePriority:
    """Sec. 3.1: "Preemption of application threads is therefore necessary.
    The current scheduler uses a preemptive, priority-based scheme, with
    system threads running at a higher priority than application threads."
    """

    def test_spinning_application_task_barely_hurts_protocol_latency(self):
        idle_system, a, b = rig()
        idle_rtt = _datagram_rtt(idle_system, a, b)

        busy_system, a2, b2 = rig()

        def cpu_hog():
            # An application task computing forever on the *echoing* CAB —
            # exactly the "stuck in infinite loops" case the paper worries
            # about.  Preemption keeps the echo (a system thread) healthy.
            while True:
                yield ms(5)

        b2.runtime.fork_application(cpu_hog(), "hog")
        busy_rtt = _datagram_rtt(busy_system, a2, b2)

        # Preemption costs a couple of context switches per round trip, not
        # milliseconds of hog quantum.
        assert busy_rtt < idle_rtt + 4 * 25_000

    def test_without_priority_gap_the_hog_would_matter(self):
        """Control experiment: an echo at *application* priority suffers."""
        system, a, b = rig()
        a_inbox = a.runtime.mailbox("pc-a")
        b_inbox = b.runtime.mailbox("pc-b")
        a.datagram.bind(0x30, a_inbox)
        b.datagram.bind(0x31, b_inbox)
        done = system.sim.event()
        samples = []

        def client():
            for index in range(6):
                start = system.now
                yield from a.datagram.send(0x30, b.node_id, 0x31, b"x" * 32)
                msg = yield from a_inbox.begin_get()
                yield from a_inbox.end_get(msg)
                if index >= 2:
                    samples.append(system.now - start)
            done.succeed()

        def echo():
            while True:
                msg = yield from b_inbox.begin_get()
                data = msg.read()
                yield from b_inbox.end_get(msg)
                yield from b.datagram.send(0x31, a.node_id, 0x30, data)

        def hog():
            from repro.cab.cpu import YieldCPU

            while True:
                yield ms(2)
                yield YieldCPU()  # round-robin with its priority peers

        a.runtime.fork_application(client(), "client")
        # Echo at the SAME priority as the hog: round-robin makes each round
        # trip eat multi-millisecond hog quanta.
        b.runtime.fork_application(echo(), "echo")
        b.runtime.fork_application(hog(), "hog")
        system.run_until(done, limit=seconds(60))
        mean = sum(samples) / len(samples)
        assert mean > ms(1)  # visibly wrecked vs the ~200 us healthy RTT


class TestConcurrentMailboxReaders:
    """Sec. 3.3: "Multiple threads can use these operations to process
    concurrently the messages arriving at a single mailbox."
    """

    def test_worker_pool_shares_one_mailbox(self):
        system, a, _b = rig()
        mbox = a.runtime.mailbox("pool", cached_buffer_bytes=0)
        done = system.sim.event()
        handled = {"w1": 0, "w2": 0, "w3": 0}
        total = 30

        def producer():
            for index in range(total):
                msg = yield from mbox.begin_put(64)
                yield from a.runtime.fill_message(msg, bytes([index]) * 8)
                yield from mbox.end_put(msg)
                yield from a.runtime.ops.sleep(us(30))

        def worker(tag):
            def body():
                while True:
                    msg = yield from mbox.begin_get()
                    # Simulate per-message work so others get a turn.
                    yield from a.runtime.ops.sleep(us(100))
                    yield from mbox.end_get(msg)
                    handled[tag] += 1
                    if sum(handled.values()) == total and not done.triggered:
                        done.succeed()

            return body

        a.runtime.fork_application(producer(), "producer")
        for tag in handled:
            a.runtime.fork_system(worker(tag)(), tag)
        system.run_until(done, limit=seconds(60))
        assert sum(handled.values()) == total
        # Genuinely concurrent: every worker processed some messages.
        assert all(count > 0 for count in handled.values()), handled
        a.runtime.heap.check_invariants()


class TestNoCopyDelivery:
    """Sec. 4: "The use of mailboxes proved advantageous in avoiding any
    copying of the data between receipt and presentation to the user."
    """

    def test_udp_payload_address_is_stable_from_wire_to_user(self):
        system, a, b = rig()
        inbox = b.runtime.mailbox("inbox")
        b.udp.bind(99, inbox)
        done = system.sim.event()
        addresses = {}

        # Spy on the datalink's allocation to learn where the packet landed.
        original_handler = b.ip.input_mailbox._try_alloc_message

        def spy(size):
            msg = original_handler(size)
            if msg is not None and size > 60:
                addresses["landed"] = msg.addr
            return msg

        b.ip.input_mailbox._try_alloc_message = spy

        def sender():
            yield from a.udp.send(1, b.ip_address, 99, b"z" * 100)

        def receiver():
            msg = yield from inbox.begin_get()
            addresses["presented"] = msg.addr
            yield from inbox.end_get(msg)
            done.succeed()

        a.runtime.fork_application(sender(), "s")
        b.runtime.fork_application(receiver(), "r")
        system.run_until(done, limit=seconds(5))
        # The user sees the same buffer the DMA landed in, offset only by
        # the trimmed headers (datalink 16 + IP 20 + UDP 8 = 44 bytes).
        assert addresses["presented"] == addresses["landed"] + 44
