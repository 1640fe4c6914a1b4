"""Unit tests for the datalink layer mechanics."""

import pytest

from repro.errors import ProtocolError
from repro.protocols.datalink import ProtocolBinding
from repro.protocols.headers import DatalinkHeader
from repro.system import NectarSystem
from repro.units import ms, seconds, us

DL_TYPE_TEST = 0x7777


def rig():
    system = NectarSystem()
    hub = system.add_hub("hub0")
    a = system.add_node("a", hub, 0)
    b = system.add_node("b", hub, 1)
    return system, a, b


def test_default_binding_queues_into_input_mailbox():
    system, a, b = rig()
    inbox = b.runtime.mailbox("raw-inbox")
    b.datalink.register(DL_TYPE_TEST, ProtocolBinding(input_mailbox=inbox))
    done = system.sim.event()

    def sender():
        yield from a.datalink.send_raw(b.node_id, DL_TYPE_TEST, b"raw packet bytes")

    def receiver():
        msg = yield from inbox.begin_get()
        done.succeed(msg.read())
        yield from inbox.end_get(msg)

    a.runtime.fork_application(sender(), "s")
    b.runtime.fork_application(receiver(), "r")
    assert system.run_until(done, limit=seconds(1)) == b"raw packet bytes"


def test_duplicate_type_registration_rejected():
    _system, a, _b = rig()
    inbox = a.runtime.mailbox("x")
    a.datalink.register(DL_TYPE_TEST, ProtocolBinding(input_mailbox=inbox))
    with pytest.raises(ProtocolError, match="already bound"):
        a.datalink.register(DL_TYPE_TEST, ProtocolBinding(input_mailbox=inbox))


def test_start_of_data_upcall_overlaps_arrival():
    """The header upcall fires while the body is still streaming in."""
    system, a, b = rig()
    inbox = b.runtime.mailbox("raw-inbox")
    stamps = {}

    def on_header(msg, header):
        stamps["header"] = system.now
        yield from iter(())

    def on_packet(msg, header):
        stamps["complete"] = system.now
        yield from inbox.iend_put(msg)

    b.datalink.register(
        DL_TYPE_TEST,
        ProtocolBinding(
            input_mailbox=inbox,
            header_bytes=64,
            on_header=on_header,
            on_packet=on_packet,
        ),
    )

    def sender():
        # 8 KB body: ~655 us on the wire; the header lands in the first
        # 512-byte chunk, far earlier.
        yield from a.datalink.send_raw(b.node_id, DL_TYPE_TEST, b"H" * 8000)

    a.runtime.fork_application(sender(), "s")
    system.run(until=seconds(1))
    assert "header" in stamps and "complete" in stamps
    # Overlap: header processing happened at least 400 us before completion.
    assert stamps["complete"] - stamps["header"] > 400_000


def test_message_arrives_trimmed_of_datalink_header():
    system, a, b = rig()
    inbox = b.runtime.mailbox("raw-inbox")
    sizes = {}

    def on_packet(msg, header):
        sizes["msg"] = msg.size
        sizes["declared"] = header.length
        yield from inbox.iend_put(msg)

    b.datalink.register(
        DL_TYPE_TEST, ProtocolBinding(input_mailbox=inbox, on_packet=on_packet)
    )

    def sender():
        yield from a.datalink.send_raw(b.node_id, DL_TYPE_TEST, b"p" * 300)

    a.runtime.fork_application(sender(), "s")
    system.run(until=seconds(1))
    assert sizes["msg"] == 300  # datalink header already stripped
    assert sizes["declared"] == 300


def test_no_buffer_space_drops_packet():
    """When the input mailbox cannot allocate, the frame is sunk (and the
    transports recover by retransmission)."""
    system, a, b = rig()
    inbox = b.runtime.mailbox("tiny-inbox", cached_buffer_bytes=0)
    b.datalink.register(DL_TYPE_TEST, ProtocolBinding(input_mailbox=inbox))

    def hog_heap():
        # Consume the whole heap (down to the last crumbs) so ibegin_put
        # fails.
        heap = b.runtime.heap
        for size in (4096, 256, 32, 8):
            while heap.try_alloc(size) is not None:
                pass
        yield from b.runtime.ops.sleep(0)

    def sender():
        yield from a.runtime.ops.sleep(us(500))
        yield from a.datalink.send_raw(b.node_id, DL_TYPE_TEST, b"no room at the inn")

    b.runtime.fork_application(hog_heap(), "hog")
    a.runtime.fork_application(sender(), "s")
    system.run(until=ms(10))
    assert b.cab.stats.value("dl_no_buffer") == 1
    assert len(inbox) == 0


def test_send_message_frees_buffer_after_dma():
    system, a, b = rig()
    scratch = a.runtime.mailbox("scratch", cached_buffer_bytes=0)
    done = system.sim.event()

    def sender():
        before = a.runtime.heap.allocated_bytes
        msg = yield from scratch.begin_put(1000)
        yield from a.runtime.fill_message(msg, b"F" * 1000)
        yield from a.datalink.send_message(b.node_id, DL_TYPE_TEST, msg, free_after=True)
        # Wait for the TX-complete interrupt to release the buffer.
        yield from a.runtime.ops.sleep(ms(2))
        done.succeed((before, a.runtime.heap.allocated_bytes))

    a.runtime.fork_application(sender(), "s")
    before, after = system.run_until(done, limit=seconds(1))
    assert after == before
    a.runtime.heap.check_invariants()


def test_injected_corruption_dropped_by_crc_before_protocol_layer():
    """Negative path: a fault-injected corrupt frame dies at the CRC check.

    The datalink's end-of-packet handler must count the drop and abort the
    in-flight mailbox message; the protocol layer above must never see the
    packet.
    """
    from repro.faults.plan import CORRUPT, FaultPlan, FaultSpec

    system, a, b = rig()
    system.attach_fault_plan(
        FaultPlan(seed=5, specs=(FaultSpec(kind=CORRUPT, nth=1),))
    )
    inbox = b.runtime.mailbox("user-inbox")
    b.datagram.bind(500, inbox)

    def sender():
        yield from a.datagram.send(1, b.node_id, 500, b"doomed payload")

    a.runtime.fork_application(sender(), "s")
    system.run(until=ms(5))
    assert system.faults.stats.value("fault_corrupt") == 1
    assert b.cab.stats.value("crc_errors") == 1
    assert b.cab.stats.value("dl_crc_drops") == 1
    assert b.runtime.stats.value("datagram_in") == 0
    assert len(inbox) == 0
