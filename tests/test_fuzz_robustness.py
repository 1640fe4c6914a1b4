"""Fuzz tests: arbitrary bytes must never crash the protocol stack.

Garbage frames are a fact of life on a real network; every layer must
classify-and-drop, never raise.  Hypothesis feeds random payloads into each
datalink type.
"""

from hypothesis import given, settings, strategies as st

from repro.protocols.headers import DL_TYPE_IP, DL_TYPE_NECTAR
from repro.host.netdev import DL_TYPE_NETDEV
from repro.system import NectarSystem
from repro.units import ms, seconds


def fresh_rig():
    system = NectarSystem()
    hub = system.add_hub("hub0")
    a = system.add_node("cab-a", hub, 0)
    b = system.add_node("cab-b", hub, 1)
    # Bind some real consumers so demux paths past the first check run too.
    b.udp.bind(100, b.runtime.mailbox("fz-udp"))
    b.datagram.bind(100, b.runtime.mailbox("fz-dg"))
    return system, a, b


class TestGarbageFrames:
    @given(payload=st.binary(min_size=1, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_random_bytes_as_ip_packet(self, payload):
        system, a, b = fresh_rig()

        def sender():
            yield from a.datalink.send_raw(b.node_id, DL_TYPE_IP, payload)

        a.runtime.fork_application(sender(), "s")
        system.run(until=ms(20))  # any crash would raise out of run()

    @given(payload=st.binary(min_size=1, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_random_bytes_as_nectar_packet(self, payload):
        system, a, b = fresh_rig()

        def sender():
            yield from a.datalink.send_raw(b.node_id, DL_TYPE_NECTAR, payload)

        a.runtime.fork_application(sender(), "s")
        system.run(until=ms(20))

    @given(
        header_bytes=st.binary(min_size=20, max_size=20),
        body=st.binary(max_size=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_ip_header_with_body(self, header_bytes, body):
        """A syntactically sized but semantically random IP header."""
        system, a, b = fresh_rig()

        def sender():
            yield from a.datalink.send_raw(
                b.node_id, DL_TYPE_IP, header_bytes + body
            )

        a.runtime.fork_application(sender(), "s")
        system.run(until=ms(20))

    def test_flood_of_garbage_keeps_real_traffic_working(self):
        """The stack classifies-and-drops garbage while serving real users."""
        system, a, b = fresh_rig()
        inbox = b.runtime.mailbox("real-inbox")
        b.datagram.bind(500, inbox)
        done = system.sim.event()

        def garbage_source():
            for index in range(20):
                junk = bytes([(index * 37 + j) % 256 for j in range(40)])
                yield from a.datalink.send_raw(b.node_id, DL_TYPE_IP, junk)
                yield from a.datalink.send_raw(b.node_id, DL_TYPE_NECTAR, junk)

        def real_sender():
            for index in range(5):
                yield from a.datagram.send(1, b.node_id, 500, bytes([index]) * 32)

        def real_receiver():
            got = []
            for _ in range(5):
                msg = yield from inbox.begin_get()
                got.append(msg.read(0, 1)[0])
                yield from inbox.end_get(msg)
            done.succeed(got)

        a.runtime.fork_application(garbage_source(), "junk")
        a.runtime.fork_application(real_sender(), "real")
        b.runtime.fork_application(real_receiver(), "recv")
        assert system.run_until(done, limit=seconds(10)) == [0, 1, 2, 3, 4]
        b.runtime.heap.check_invariants()

