"""Cross-cutting edge-path tests: heap pressure from the host, corrupt
segments past the CRC, simultaneous close, VME contention, FIFO ordering
properties under interleaved producers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.host.machine import HostedNode
from repro.protocols.headers import IPPROTO_UDP, IPv4Header, UDPHeader
from repro.protocols.tcp.connection import TCPState
from repro.system import NectarSystem
from repro.units import ms, seconds, us


def rig():
    system = NectarSystem()
    hub = system.add_hub("hub0")
    a = system.add_node("cab-a", hub, 0)
    b = system.add_node("cab-b", hub, 1)
    return system, a, b


class TestHostHeapPressure:
    def test_host_begin_put_blocks_until_cab_frees(self):
        """A host writer stalls on a full heap and resumes when space frees."""
        system, a, b = rig()
        ha = HostedNode(system, a)
        mbox = a.runtime.mailbox("pressure", cached_buffer_bytes=0)
        stamps = {}

        def cab_hog():
            # Take nearly all heap space, hold it 2 ms, then release.
            big = yield from mbox.begin_put(a.runtime.heap.largest_free_block() - 64)
            stamps["hogged"] = system.now
            yield from a.runtime.ops.sleep(ms(2))
            yield from mbox.abort_put(big)
            stamps["freed"] = system.now

        def _host_sleep(hosted, ns):
            from repro.cab.cpu import Block, WaitToken

            token = WaitToken("host-sleep")
            hosted.host.cpu.wake_after(token, ns)
            yield Block(token)

        def host_writer():
            yield from ha.driver.map_cab_memory()
            # Let the hog win the race for the heap first.
            while "hogged" not in stamps:
                yield from _host_sleep(ha, us(100))
            msg = yield from ha.driver.begin_put(mbox, 200_000)
            stamps["allocated"] = system.now
            yield from ha.driver.end_put(mbox, msg)

        a.runtime.fork_application(cab_hog(), "hog")
        ha.host.fork_process(host_writer(), "writer")
        system.run(until=seconds(1))
        assert stamps["allocated"] >= stamps["freed"]


class TestCorruptionPastCRC:
    def test_udp_software_checksum_rejects_memory_corruption(self):
        """Corrupt the packet *after* the CRC seal is computed at a layer the
        CRC cannot see (model of a DMA/memory fault): UDP's software
        checksum must reject it."""
        system, a, b = rig()
        inbox = b.runtime.mailbox("inbox")
        b.udp.bind(99, inbox)

        real_end_of_data = b.ip._end_of_data

        def corrupting_end_of_data(msg, dl_header):
            # Flip a payload byte after the frame passed the CRC check.
            if msg.size > 40:
                byte = msg.read(35, 1)[0]
                msg.write(35, bytes([byte ^ 0xFF]))
            return real_end_of_data(msg, dl_header)

        # Patch the binding's completion path.
        b.ip._end_of_data = corrupting_end_of_data
        b.datalink._bindings[0x0800].on_packet = corrupting_end_of_data

        def sender():
            yield from a.udp.send(1, b.ip_address, 99, b"u" * 100)

        a.runtime.fork_application(sender(), "s")
        system.run(until=ms(10))
        assert b.runtime.stats.value("udp_bad_checksum") == 1
        assert len(inbox) == 0

    def test_zero_udp_checksum_field_means_none(self):
        """RFC 768: a transmitter that computed no checksum sends a zero
        field, and the receiver delivers the datagram unverified."""
        system, a, b = rig()
        inbox = b.runtime.mailbox("inbox")
        b.udp.bind(99, inbox)
        data = b"sent without a checksum"

        def sender():
            headers = IPv4Header.SIZE + UDPHeader.SIZE
            msg = yield from a.udp.input_mailbox.begin_put(headers + len(data))
            udp = UDPHeader(
                src_port=1, dst_port=99, length=UDPHeader.SIZE + len(data), checksum=0
            )
            msg.write(IPv4Header.SIZE, udp.pack() + data)
            template = IPv4Header(src=0, dst=b.ip_address, protocol=IPPROTO_UDP)
            yield from a.ip.output(template, msg, free_after=True)

        a.runtime.fork_application(sender(), "s")
        system.run(until=ms(10))
        assert b.runtime.stats.value("udp_in") == 1
        assert b.runtime.stats.value("udp_bad_checksum") == 0
        assert [m.read() for m in inbox.queue] == [data]


class TestSimultaneousClose:
    def test_both_sides_close_at_once(self):
        system, a, b = rig()
        server_inbox = b.runtime.mailbox("srv")
        listener = b.tcp.listen(7000, lambda conn: server_inbox)
        done_a = system.sim.event()
        done_b = system.sim.event()

        def client():
            inbox = a.runtime.mailbox("cli")
            conn = yield from a.tcp.connect(6000, b.ip_address, 7000, inbox)
            yield from a.runtime.ops.sleep(ms(1))
            yield from a.tcp.close(conn)
            yield from a.tcp.wait_closed(conn)
            done_a.succeed(conn.state)

        def server():
            conn = yield from b.tcp.accept(listener)
            yield from b.runtime.ops.sleep(ms(1))
            yield from b.tcp.close(conn)
            yield from b.tcp.wait_closed(conn)
            done_b.succeed(conn.state)

        a.runtime.fork_application(client(), "c")
        b.runtime.fork_application(server(), "s")
        assert system.run_until(done_a, limit=seconds(60)) is TCPState.CLOSED
        assert system.run_until(done_b, limit=seconds(60)) is TCPState.CLOSED
        assert not a.tcp.connections
        assert not b.tcp.connections


class TestVMEContention:
    def test_pio_and_dma_share_one_bus(self):
        """Concurrent host transfers on one VME bus serialize."""
        system, a, _b = rig()
        ha = HostedNode(system, a)
        finish = {}

        def mover(tag, nbytes):
            def body():
                yield from ha.driver.map_cab_memory()
                yield from ha.driver.vme_copy(nbytes)
                finish[tag] = system.now

            return body

        ha.host.fork_process(mover("big", 30_000)(), "big")
        ha.host.fork_process(mover("small", 30_000)(), "small")
        system.run(until=seconds(1))
        # 30 KB at 30 Mbit/s is 8 ms; two serialized transfers: the second
        # finishes roughly twice as late as the first.
        first, second = sorted(finish.values())
        assert second >= first + 7_000_000


class TestMailboxOrderingProperty:
    @given(
        batches=st.lists(
            st.integers(min_value=1, max_value=4), min_size=1, max_size=6
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_two_producers_fifo_per_producer(self, batches):
        """With two interleaved CAB producers, each producer's messages
        arrive in its own order (global order is scheduling-dependent)."""
        system, a, _b = rig()
        mbox = a.runtime.mailbox("shared-box", cached_buffer_bytes=0)
        done = system.sim.event()
        total = 2 * sum(batches)
        received = []

        def producer(tag):
            def body():
                counter = 0
                for batch in batches:
                    for _ in range(batch):
                        msg = yield from mbox.begin_put(16)
                        yield from a.runtime.fill_message(
                            msg, bytes([tag, counter]) + b"\x00" * 14
                        )
                        yield from mbox.end_put(msg)
                        counter += 1
                    yield from a.runtime.ops.sleep(us(10))

            return body

        def consumer():
            for _ in range(total):
                msg = yield from mbox.begin_get()
                received.append(tuple(msg.read(0, 2)))
                yield from mbox.end_get(msg)
            done.succeed()

        a.runtime.fork_application(producer(1)(), "p1")
        a.runtime.fork_application(producer(2)(), "p2")
        a.runtime.fork_application(consumer(), "c")
        system.run_until(done, limit=seconds(30))
        for tag in (1, 2):
            sequence = [counter for t, counter in received if t == tag]
            assert sequence == sorted(sequence)
        a.runtime.heap.check_invariants()
