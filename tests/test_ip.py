"""Tests for the IP layer: dispatch, fragmentation, reassembly, timeouts."""

import pytest

from repro.errors import ProtocolError
from repro.faults import DROP, FaultPlan, FaultSpec
from repro.protocols.addressing import format_ip, parse_ip
from repro.protocols.headers import IPv4Header
from repro.system import NectarSystem
from repro.units import ms, seconds


@pytest.fixture
def rig():
    system = NectarSystem()
    hub = system.add_hub("hub0")
    a = system.add_node("cab-a", hub, 0, mtu=2048)  # small MTU: easy frags
    b = system.add_node("cab-b", hub, 1, mtu=2048)
    return system, a, b


class TestAddressing:
    def test_parse_format_roundtrip(self):
        assert format_ip(parse_ip("10.1.2.3")) == "10.1.2.3"

    def test_bad_addresses(self):
        from repro.errors import AddressError

        with pytest.raises(AddressError):
            parse_ip("10.0.0")
        with pytest.raises(AddressError):
            parse_ip("10.0.0.999")

    def test_auto_assignment(self, rig):
        _system, a, b = rig
        assert format_ip(a.ip_address) == "10.0.0.1"
        assert format_ip(b.ip_address) == "10.0.0.2"

    def test_auto_assignment_past_255_nodes(self):
        registry = NectarSystem().registry
        ids = [registry.register(f"n{index}") for index in range(65_536)]
        assert ids[0] == 1 and ids[-1] == 65_536
        expected = {1: "10.0.0.1", 255: "10.0.0.255", 256: "10.0.1.0", 65_536: "10.1.0.0"}
        for node_id, dotted in expected.items():
            assert format_ip(registry.ip_of(node_id)) == dotted
            assert registry.node_for_ip(parse_ip(dotted)) == node_id

    def test_auto_assignment_keeps_the_duplicate_ip_check(self):
        from repro.errors import AddressError

        registry = NectarSystem().registry
        registry.register("squatter", ip="10.0.0.2")  # node id 1 on id 2's address
        with pytest.raises(AddressError, match="10.0.0.2 already in use"):
            registry.register("n2")


class TestFragmentation:
    def _udp_roundtrip(self, system, a, b, payload):
        inbox = b.runtime.mailbox("inbox")
        b.udp.bind(99, inbox)
        done = system.sim.event()

        def sender():
            yield from a.udp.send(1, b.ip_address, 99, payload)

        def receiver():
            msg = yield from inbox.begin_get()
            data = msg.read()
            yield from inbox.end_get(msg)
            done.succeed(data)

        a.runtime.fork_application(sender(), "s")
        b.runtime.fork_application(receiver(), "r")
        return system.run_until(done, limit=seconds(10))

    def test_exact_mtu_not_fragmented(self, rig):
        system, a, b = rig
        payload = b"m" * (2048 - 20 - 8)  # IP + UDP headers fill the MTU
        assert self._udp_roundtrip(system, a, b, payload) == payload
        assert a.runtime.stats.value("ip_fragments_out") == 0

    def test_one_byte_over_mtu_fragments(self, rig):
        system, a, b = rig
        payload = b"m" * (2048 - 20 - 8 + 1)
        assert self._udp_roundtrip(system, a, b, payload) == payload
        assert a.runtime.stats.value("ip_fragments_out") == 2
        assert b.runtime.stats.value("ip_reassembled") == 1

    def test_many_fragments(self, rig):
        system, a, b = rig
        payload = bytes(range(256)) * 40  # 10 KB over a 2 KB MTU
        assert self._udp_roundtrip(system, a, b, payload) == payload
        assert a.runtime.stats.value("ip_fragments_out") >= 5
        assert b.runtime.stats.value("ip_reassembled") == 1

    def test_interleaved_datagrams_reassemble_independently(self, rig):
        system, a, b = rig
        inbox = b.runtime.mailbox("inbox")
        b.udp.bind(99, inbox)
        done = system.sim.event()
        payload_1 = b"\x11" * 5000
        payload_2 = b"\x22" * 5000

        def sender():
            yield from a.udp.send(1, b.ip_address, 99, payload_1)
            yield from a.udp.send(1, b.ip_address, 99, payload_2)

        def receiver():
            got = []
            for _ in range(2):
                msg = yield from inbox.begin_get()
                got.append(msg.read())
                yield from inbox.end_get(msg)
            done.succeed(got)

        a.runtime.fork_application(sender(), "s")
        b.runtime.fork_application(receiver(), "r")
        got = system.run_until(done, limit=seconds(10))
        assert got == [payload_1, payload_2]
        assert b.runtime.stats.value("ip_reassembled") == 2

    def test_lost_fragment_times_out_and_frees_buffers(self, rig):
        system, a, b = rig

        # Frames: fragment 1, fragment 2, ... drop only the second.
        system.attach_fault_plan(FaultPlan(1, [FaultSpec(DROP, nth=2)]))
        inbox = b.runtime.mailbox("inbox")
        b.udp.bind(99, inbox)

        def sender():
            yield from a.udp.send(1, b.ip_address, 99, b"f" * 5000)

        a.runtime.fork_application(sender(), "s")
        heap_before = b.runtime.heap.allocated_bytes
        system.run(until=seconds(8))  # beyond the 5 s reassembly timeout
        assert b.runtime.stats.value("ip_reassembly_timeouts") == 1
        assert len(inbox) == 0
        # The stale fragments were freed.
        assert b.runtime.heap.allocated_bytes <= heap_before + 64
        b.runtime.heap.check_invariants()


class TestInputValidation:
    def test_wrong_destination_dropped(self, rig):
        """A unicast IP packet for someone else is not delivered."""
        system, a, b = rig
        from repro.protocols.headers import DL_TYPE_IP

        # Craft a packet addressed to a third IP but datalink-delivered to b.
        header = IPv4Header(src=a.ip_address, dst=parse_ip("10.0.0.77"), protocol=17, total_length=28)
        packet = header.pack() + b"\x00" * 8

        def sender():
            yield from a.datalink.send_raw(b.node_id, DL_TYPE_IP, packet)

        a.runtime.fork_application(sender(), "s")
        system.run(until=ms(10))
        assert b.runtime.stats.value("ip_not_ours") == 1

    def test_corrupt_ip_checksum_dropped(self, rig):
        system, a, b = rig
        from repro.protocols.headers import DL_TYPE_IP

        header = IPv4Header(src=a.ip_address, dst=b.ip_address, protocol=17, total_length=28)
        raw = bytearray(header.pack() + b"\x00" * 8)
        raw[9] ^= 0xFF  # damage the header after checksumming

        def sender():
            yield from a.datalink.send_raw(b.node_id, DL_TYPE_IP, bytes(raw))

        a.runtime.fork_application(sender(), "s")
        system.run(until=ms(10))
        assert b.runtime.stats.value("ip_bad_checksum") >= 1

    def test_unknown_transport_dropped(self, rig):
        system, a, b = rig
        from repro.protocols.headers import DL_TYPE_IP

        header = IPv4Header(src=a.ip_address, dst=b.ip_address, protocol=253, total_length=24)
        packet = header.pack() + b"\x00" * 4

        def sender():
            yield from a.datalink.send_raw(b.node_id, DL_TYPE_IP, packet)

        a.runtime.fork_application(sender(), "s")
        system.run(until=ms(10))
        assert b.runtime.stats.value("ip_no_transport") == 1

    def test_duplicate_transport_registration_rejected(self, rig):
        _system, a, _b = rig
        with pytest.raises(ProtocolError, match="already registered"):
            a.ip.register_transport(17, a.runtime.mailbox("dup"))


class TestThreadInputMode:
    def test_thread_mode_delivers(self):
        system = NectarSystem()
        hub = system.add_hub("hub0")
        a = system.add_node("cab-a", hub, 0, ip_input_mode="thread")
        b = system.add_node("cab-b", hub, 1, ip_input_mode="thread")
        inbox = b.runtime.mailbox("inbox")
        b.udp.bind(99, inbox)
        done = system.sim.event()

        def sender():
            yield from a.udp.send(1, b.ip_address, 99, b"threaded input")

        def receiver():
            msg = yield from inbox.begin_get()
            done.succeed(msg.read())
            yield from inbox.end_get(msg)

        a.runtime.fork_application(sender(), "s")
        b.runtime.fork_application(receiver(), "r")
        assert system.run_until(done, limit=seconds(1)) == b"threaded input"

    def test_thread_mode_fragmentation_works(self):
        system = NectarSystem()
        hub = system.add_hub("hub0")
        a = system.add_node("cab-a", hub, 0, mtu=2048, ip_input_mode="thread")
        b = system.add_node("cab-b", hub, 1, mtu=2048, ip_input_mode="thread")
        inbox = b.runtime.mailbox("inbox")
        b.udp.bind(99, inbox)
        done = system.sim.event()
        payload = b"t" * 6000

        def sender():
            yield from a.udp.send(1, b.ip_address, 99, payload)

        def receiver():
            msg = yield from inbox.begin_get()
            done.succeed(msg.read())
            yield from inbox.end_get(msg)

        a.runtime.fork_application(sender(), "s")
        b.runtime.fork_application(receiver(), "r")
        assert system.run_until(done, limit=seconds(10)) == payload

    def test_bad_mode_rejected(self):
        system = NectarSystem()
        hub = system.add_hub("hub0")
        with pytest.raises(ProtocolError, match="input mode"):
            system.add_node("cab-a", hub, 0, ip_input_mode="nonsense")
