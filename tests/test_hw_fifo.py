"""Tests for the byte-accounted FIFOs (flow control behaviour)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CABError
from repro.hw.fifo import ByteFIFO, Chunk
from repro.sim import Event, Simulator


def chunk(nbytes, frame="f", offset=0, first=True, last=True):
    return Chunk(frame=frame, offset=offset, length=nbytes, is_first=first, is_last=last)


class TestByteFIFO:
    def test_push_pop_accounting(self):
        sim = Simulator()
        fifo = ByteFIFO(sim, 1024)
        fifo.push(chunk(100))
        fifo.push(chunk(200, first=False))
        assert fifo.level == 300
        assert len(fifo) == 2
        assert fifo.pop().length == 100
        assert fifo.level == 200
        assert fifo.total_in == 300
        assert fifo.total_out == 100

    def test_pop_empty_raises(self):
        sim = Simulator()
        fifo = ByteFIFO(sim, 64)
        with pytest.raises(CABError):
            fifo.pop()

    def test_push_overflow_raises(self):
        sim = Simulator()
        fifo = ByteFIFO(sim, 64)
        fifo.push(chunk(64))
        with pytest.raises(CABError, match="overflow"):
            fifo.push(chunk(1))

    def test_oversized_wait_rejected(self):
        sim = Simulator()
        fifo = ByteFIFO(sim, 64)
        with pytest.raises(CABError, match="exceeds capacity"):
            fifo.wait_space(65)

    def test_wait_space_blocks_until_drain(self):
        sim = Simulator()
        fifo = ByteFIFO(sim, 100)
        fifo.push(chunk(100))
        granted = []

        def producer():
            yield fifo.wait_space(50)
            granted.append(sim.now)
            fifo.push(chunk(50))

        def consumer():
            yield sim.timeout(500)
            fifo.pop()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert granted == [500]

    def test_space_waiters_served_in_order(self):
        """A large waiter is not starved by later small ones."""
        sim = Simulator()
        fifo = ByteFIFO(sim, 100)
        fifo.push(chunk(100))
        order = []

        def big():
            yield fifo.wait_space(80)
            order.append("big")
            fifo.push(chunk(80))

        def small():
            yield sim.timeout(1)  # arrives second
            yield fifo.wait_space(10)
            order.append("small")
            fifo.push(chunk(10))

        def consumer():
            yield sim.timeout(100)
            fifo.pop()

        sim.process(big())
        sim.process(small())
        sim.process(consumer())
        sim.run()
        assert order == ["big", "small"]

    def test_satisfied_waits_continue_in_place(self):
        """No event and no heap entry when space or data is already there:
        the wait returns None and the caller goes on in place."""
        sim = Simulator()
        fifo = ByteFIFO(sim, 64)
        assert fifo.wait_space(64) is None
        fifo.push(chunk(64))
        assert fifo.wait_data() is None
        assert sim.events_scheduled == 0
        assert isinstance(fifo.wait_space(1), Event)  # full: must block
        fifo.pop()
        assert isinstance(fifo.wait_data(), Event)  # empty: must block

    def test_wait_data_blocks_until_push(self):
        sim = Simulator()
        fifo = ByteFIFO(sim, 64)
        seen = []

        def consumer():
            yield fifo.wait_data()
            seen.append(sim.now)

        def producer():
            yield sim.timeout(77)
            fifo.push(chunk(8))

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert seen == [77]

    def test_take_pops_a_buffered_chunk_now(self):
        sim = Simulator()
        fifo = ByteFIFO(sim, 64)
        fifo.push(chunk(24))
        taken = fifo.take(5)
        assert taken == chunk(24)
        assert fifo.level == 0 and fifo.total_out == 24
        assert sim.events_scheduled == 0

    def test_a_parked_take_wakes_length_times_ns_per_byte_after_the_push(self):
        """One heap entry per chunk: the push pops the chunk for the parked
        taker (the level falls at the push) and the taker wakes once the
        chunk has moved, with the chunk as the event's value."""
        sim = Simulator()
        fifo = ByteFIFO(sim, 64)
        pushed = chunk(40)
        seen = {}

        def taker():
            got = fifo.take(3)
            assert isinstance(got, Event)
            seen["chunk"] = yield got
            seen["at"] = sim.now

        def pusher():
            yield 100
            before = sim.events_scheduled
            fifo.push(pushed)
            seen["level_after_push"] = fifo.level
            seen["entries_for_push"] = sim.events_scheduled - before

        sim.process(taker())
        sim.process(pusher())
        sim.run()
        assert seen == {
            "chunk": pushed,
            "at": 100 + 40 * 3,
            "level_after_push": 0,
            "entries_for_push": 1,
        }
        assert fifo.total_in == fifo.total_out == 40

    @pytest.mark.parametrize("first", ["take", "wait_data"])
    def test_a_take_beside_another_waiting_consumer_raises(self, first):
        sim = Simulator()
        fifo = ByteFIFO(sim, 64)
        if first == "take":
            fifo.take(1)
        else:
            fifo.wait_data()
        with pytest.raises(CABError, match="take"):
            fifo.take(1)
        if first == "take":
            with pytest.raises(CABError, match="parked take"):
                fifo.wait_data()

    def test_chunk_validation(self):
        with pytest.raises(CABError):
            Chunk(frame="f", offset=0, length=0, is_first=True, is_last=True)
        with pytest.raises(CABError):
            Chunk(frame="f", offset=-1, length=4, is_first=True, is_last=True)
        with pytest.raises(CABError):
            Chunk("f", 0, -3, True, True)
        piece = Chunk("f", 0, 4, True, False)
        for field, value in (("length", 0), ("offset", 2), ("is_last", True)):
            with pytest.raises(AttributeError):
                setattr(piece, field, value)
        with pytest.raises(AttributeError):
            piece.extra = 1
        assert piece == Chunk(frame="f", offset=0, length=4, is_first=True, is_last=False)

    @given(st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_conservation_property(self, sizes):
        """Bytes in == bytes buffered + bytes out, always."""
        sim = Simulator()
        fifo = ByteFIFO(sim, 4096)
        pushed = 0
        for size in sizes:
            fifo.push(chunk(size))
            pushed += size
        popped = 0
        while len(fifo) > 2:
            popped += fifo.pop().length
        assert fifo.total_in == pushed
        assert fifo.total_out == popped
        assert fifo.level == pushed - popped
