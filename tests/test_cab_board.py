"""Tests for the CAB board: TX/RX DMA pipelines, CRC checking, discards."""

import pytest

from repro.cab.board import CAB, DATA_MEMORY_BYTES, PROGRAM_MEMORY_BYTES
from repro.faults import CORRUPT, FaultPlan, FaultSpec
from repro.hw.fiber import Frame
from repro.model.costs import CostModel
from repro.system import NectarSystem
from repro.units import KB, MB, seconds


def test_memory_sizes_match_paper():
    """Paper Sec. 2.2: 128 KB PROM + 512 KB RAM program, 1 MB data."""
    assert PROGRAM_MEMORY_BYTES == 640 * KB
    assert DATA_MEMORY_BYTES == 1 * MB


def two_node_rig():
    system = NectarSystem()
    hub = system.add_hub("hub0")
    a = system.add_node("a", hub, 0)
    b = system.add_node("b", hub, 1)
    return system, a, b


def test_send_frame_returns_before_transmission_completes():
    """The DMA streams the frame out while the CPU goes on (paper Sec. 2.2)."""
    system, a, b = two_node_rig()
    stamps = {}

    def sender():
        stamps["start"] = system.now
        frame = Frame(
            route=system.network.route_for("a", "b"),
            payload=bytearray(b"q" * 8000),
            src="a",
        )
        yield from a.cab.send_frame(frame)
        stamps["returned"] = system.now

    a.runtime.fork_application(sender(), "s")
    system.run(until=seconds(1))
    # 8000 bytes take 640 us on the fiber; send_frame returned in a few us
    # (it only programs the DMA descriptor).
    assert stamps["returned"] - stamps["start"] < 20_000
    assert b.cab.stats.value("frames_received") == 1


def test_tx_complete_interrupt_fires_on_dma_done():
    system, a, b = two_node_rig()
    released = []

    def sender():
        frame = Frame(
            route=system.network.route_for("a", "b"),
            payload=bytearray(b"r" * 2048),
            src="a",
        )
        frame.on_dma_done = lambda fr: released.append(system.now)
        yield from a.cab.send_frame(frame)

    a.runtime.fork_application(sender(), "s")
    system.run(until=seconds(1))
    assert len(released) == 1
    # The buffer is released once the frame has left CAB memory: after the
    # DMA time (2048 x 25 ns = ~51 us) but well before... actually the DMA
    # is paced by the fiber for large frames; just check it happened.
    assert released[0] > 0


def test_corrupted_frame_counted_and_discarded():
    system, a, b = two_node_rig()

    system.attach_fault_plan(FaultPlan(1, [FaultSpec(CORRUPT)]))  # every frame

    def sender():
        yield from a.datagram.send(1, b.node_id, 99, b"to be corrupted")

    a.runtime.fork_application(sender(), "s")
    system.run(until=seconds(1))
    assert b.cab.stats.value("crc_errors") == 1
    # Nothing was delivered anywhere.
    assert b.runtime.stats.value("datagram_in") == 0


def test_unknown_datalink_type_discarded():
    system, a, b = two_node_rig()

    def sender():
        from repro.protocols.headers import DatalinkHeader

        header = DatalinkHeader(dl_type=0x9999, length=4, src_node=1, dst_node=2)
        frame = Frame(
            route=system.network.route_for("a", "b"),
            payload=bytearray(header.pack() + b"????"),
            src="a",
        )
        yield from a.cab.send_frame(frame)

    a.runtime.fork_application(sender(), "s")
    system.run(until=seconds(1))
    assert b.cab.stats.value("frames_discarded") == 1
    assert b.cab.stats.value("dl_unknown_type") == 1


def test_garbage_frame_discarded():
    """A frame whose payload is not even a datalink header is sunk."""
    system, a, b = two_node_rig()

    def sender():
        frame = Frame(
            route=system.network.route_for("a", "b"),
            payload=bytearray(b"\x00" * 40),
            src="a",
        )
        yield from a.cab.send_frame(frame)

    a.runtime.fork_application(sender(), "s")
    system.run(until=seconds(1))
    assert b.cab.stats.value("dl_bad_header") == 1


def test_backpressure_when_receiver_never_drains():
    """If the rx dispatch stalls, the input FIFO fills and the link blocks,
    which in turn holds the HUB output port (low-level flow control)."""
    system, a, b = two_node_rig()
    # Break b's receive path: a dispatcher that never starts the DMA will
    # raise; instead replace with one that sleeps forever via discard of
    # nothing -- simplest stall: make the rx dispatch hold the frame by
    # never being invoked.  We emulate a dead CAB by masking its rx_dispatch
    # with an infinite interrupt-time loop being impossible; instead fill
    # the FIFO by sending to a CAB whose CPU is saturated by a masked
    # compute, delaying the start-of-packet interrupt.
    stamps = {}

    def hog():
        from repro.cab.cpu import SetMask

        yield SetMask(True)
        yield 5_000_000  # 5 ms with interrupts masked
        yield SetMask(False)
        stamps["unmasked"] = system.now

    def sender():
        for index in range(4):
            yield from a.datagram.send(1, b.node_id, 99, b"x" * 7000)
        stamps["sent"] = system.now

    b.runtime.fork_application(hog(), "hog")
    a.runtime.fork_application(sender(), "s")
    # While b's CPU is masked, the start-of-packet interrupt cannot run, so
    # no receive DMA drains the 8 KB input FIFO: at most one 7 KB frame fits
    # and the rest are held back through the link (and the sender's output
    # FIFO).  The sender itself returns quickly — send_frame only programs
    # the DMA — but nothing is *received*.
    system.run(until=4_900_000)
    assert b.cab.stats.value("frames_received") <= 1
    assert not a.cab.fiber_out.fifo.is_empty  # backpressure reached the sender
    system.run(until=seconds(1))
    assert b.cab.stats.value("frames_received") == 4
    assert b.runtime.stats.value("datagram_no_port") == 4  # port 99 unbound


def test_rx_serializes_frames():
    system, a, b = two_node_rig()
    inbox = b.runtime.mailbox("inbox")
    b.datagram.bind(5, inbox)
    done = system.sim.event()
    count = 10

    def sender():
        for index in range(count):
            yield from a.datagram.send(1, b.node_id, 5, bytes([index]) * 100)

    def receiver():
        seen = []
        for _ in range(count):
            msg = yield from inbox.begin_get()
            seen.append(msg.read(0, 1)[0])
            yield from inbox.end_get(msg)
        done.succeed(seen)

    a.runtime.fork_application(sender(), "s")
    b.runtime.fork_application(receiver(), "r")
    assert system.run_until(done, limit=seconds(1)) == list(range(count))


def test_receiving_frames_spawns_no_process(monkeypatch):
    """The receive DMA and the discard sink run in line in ``rx-ctl``:
    neither a delivered frame nor a discarded one costs a process."""
    system, a, b = two_node_rig()
    inbox = b.runtime.mailbox("inbox")
    b.datagram.bind(5, inbox)
    count = 6
    spawned = []
    real_process = system.sim.process

    def counting_process(gen, name=""):
        spawned.append(name)
        return real_process(gen, name)

    def sender():
        for index in range(count):
            yield from a.datagram.send(1, b.node_id, 5, bytes([index]) * 2000)
            garbage = Frame(
                route=system.network.route_for("a", "b"),
                payload=bytearray(b"\x00" * 1500),
                src="a",
            )
            yield from a.cab.send_frame(garbage)

    def receiver():
        for _ in range(count):
            msg = yield from inbox.begin_get()
            yield from inbox.end_get(msg)

    a.runtime.fork_application(sender(), "s")
    b.runtime.fork_application(receiver(), "r")
    monkeypatch.setattr(system.sim, "process", counting_process)
    system.run(until=seconds(1))
    assert b.cab.stats.value("frames_received") == 2 * count
    assert b.cab.stats.value("frames_discarded") == count
    assert inbox.stats.value("messages_taken") == count
    assert b.cab.fiber_in.fifo.is_empty
    assert spawned == []
