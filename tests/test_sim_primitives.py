"""Unit tests for sim-level synchronization primitives."""

import pytest

from repro.sim import Resource, SimulationError, Simulator, Store


class TestStore:
    def test_fifo_order(self):
        sim = Simulator()
        store = Store(sim)

        def producer():
            for item in "abc":
                yield store.put(item)
                yield sim.timeout(1)

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
            yield sim.timeout(99)
            yield store.put("x")

        def consumer():
            item = yield store.get()
            return (item, sim.now)

        sim.process(producer())
        assert sim.run_process(consumer()) == ("x", 99)

    def test_capacity_blocks_put(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        progress = []

        def producer():
            yield store.put(1)
            progress.append(("put1", sim.now))
            yield store.put(2)
            progress.append(("put2", sim.now))

        def consumer():
            yield sim.timeout(500)
            item = yield store.get()
            progress.append(("got", item, sim.now))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert ("put1", 0) in progress
        assert ("put2", 500) in progress

    def test_try_put_and_try_get(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        assert store.try_put("a")
        assert not store.try_put("b")
        ok, item = store.try_get()
        assert ok and item == "a"
        ok, item = store.try_get()
        assert not ok

    def test_peek_empty_raises(self):
        sim = Simulator()
        store = Store(sim)
        with pytest.raises(SimulationError):
            store.peek()

    def test_bad_capacity(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Store(sim, capacity=0)


class TestResource:
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
