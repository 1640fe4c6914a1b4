"""Unit tests for sim-level synchronization primitives."""

import pytest

from repro.sim import Resource, SimulationError, Simulator, Store


class TestStore:
    def test_fifo_order(self):
        sim = Simulator()
        store = Store(sim)

        def producer():
            for item in "abc":
                store.put(item)
                yield 1

        def consumer():
            items = []
            for _ in range(3):
                item = yield store.get()
                items.append(item)
            return items

        sim.process(producer())
        assert sim.run_process(consumer()) == ["a", "b", "c"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)

        def producer():
            yield 99
            store.put("x")

        def consumer():
            item = yield store.get()
            return (item, sim.now)

        sim.process(producer())
        assert sim.run_process(consumer()) == ("x", 99)

    def test_put_builds_no_event_and_try_get_takes_in_place(self):
        sim = Simulator()
        store = Store(sim)
        assert store.put("a") is None
        store.put("b")
        assert sim.events_scheduled == 0
        assert store.try_get() == (True, "a")
        assert store.try_get() == (True, "b")
        assert store.try_get() == (False, None)
        assert sim.events_scheduled == 0

    def test_peek_empty_raises(self):
        sim = Simulator()
        store = Store(sim)
        with pytest.raises(SimulationError):
            store.peek()


class TestResource:
    def test_try_acquire_takes_a_free_slot_in_place(self):
        sim = Simulator()
        res = Resource(sim)
        assert res.try_acquire()
        assert not res.try_acquire()
        assert res.in_use == 1
        assert sim.events_scheduled == 0
        res.release()
        assert res.in_use == 0

    def test_mutual_exclusion(self):
        sim = Simulator()
        res = Resource(sim)
        timeline = []

        def user(tag, hold):
            yield res.acquire()
            timeline.append((tag, "in", sim.now))
            yield sim.timeout(hold)
            timeline.append((tag, "out", sim.now))
            res.release()

        sim.process(user("a", 100))
        sim.process(user("b", 50))
        sim.run()
        assert timeline == [
            ("a", "in", 0),
            ("a", "out", 100),
            ("b", "in", 100),
            ("b", "out", 150),
        ]

    def test_release_idle_raises(self):
        sim = Simulator()
        res = Resource(sim)
        with pytest.raises(SimulationError):
            res.release()

    def test_multi_slot(self):
        sim = Simulator()
        res = Resource(sim, slots=2)
        concurrent = []

        def user(tag):
            yield res.acquire()
            concurrent.append(tag)
            yield sim.timeout(10)
            res.release()

        for tag in range(2):
            sim.process(user(tag))
        sim.run(until=5)
        assert len(concurrent) == 2
