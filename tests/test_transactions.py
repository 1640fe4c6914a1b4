"""Tests for the Camelot-offload extension: locks + two-phase commit."""

import pytest

from repro.apps.transactions import (
    LockManager,
    Participant,
    TransactionCoordinator,
)
from repro.faults import DROP, FaultPlan, FaultSpec
from repro.system import NectarSystem
from repro.units import ms, seconds


def rig(n_participants=2):
    system = NectarSystem()
    hub = system.add_hub("hub0")
    coordinator_node = system.add_node("cab-coord", hub, 0)
    participants = []
    nodes = []
    for index in range(n_participants):
        node = system.add_node(f"cab-p{index}", hub, index + 1)
        nodes.append(node)
        participants.append(Participant(node))
    coordinator = TransactionCoordinator(coordinator_node, nodes)
    return system, coordinator_node, coordinator, nodes, participants


class TestTwoPhaseCommit:
    def test_commit_applies_updates_everywhere(self):
        system, cnode, coordinator, nodes, participants = rig()
        done = system.sim.event()

        def body():
            outcome, _txn = yield from coordinator.run_transaction(
                {
                    "cab-p0": (b"balance-a", b"100"),
                    "cab-p1": (b"balance-b", b"-100"),
                }
            )
            done.succeed(outcome)

        cnode.runtime.fork_application(body(), "coord")
        assert system.run_until(done, limit=seconds(30)) == "committed"
        system.run(until=system.now + ms(1))
        assert participants[0].data == {b"balance-a": b"100"}
        assert participants[1].data == {b"balance-b": b"-100"}

    def test_one_no_vote_aborts_everywhere(self):
        """Atomicity: if any participant refuses, nobody applies anything."""
        system, cnode, coordinator, nodes, participants = rig()
        participants[1].refuse.add(1)  # a coordinator's first transaction id
        done = system.sim.event()

        def body():
            outcome, _txn = yield from coordinator.run_transaction(
                {
                    "cab-p0": (b"k", b"v"),
                    "cab-p1": (b"k", b"v"),
                }
            )
            done.succeed(outcome)

        cnode.runtime.fork_application(body(), "coord")
        assert system.run_until(done, limit=seconds(30)) == "aborted"
        system.run(until=system.now + ms(1))
        assert participants[0].data == {}
        assert participants[1].data == {}
        assert participants[0].prepared == set()

    def test_every_coordinator_numbers_from_one(self):
        """Transaction ids belong to the coordinator, not the interpreter:
        the n-th coordinator built in one process puts the same ids on the
        wire as the first."""
        ids = []
        for _build in range(2):
            system, cnode, coordinator, nodes, participants = rig(1)
            done = system.sim.event()

            def body():
                for value in (b"1", b"2"):
                    _outcome, txn = yield from coordinator.run_transaction(
                        {"cab-p0": (b"k", value)}
                    )
                    ids.append(txn)
                done.succeed()

            cnode.runtime.fork_application(body(), "coord")
            system.run_until(done, limit=seconds(30))
        assert ids == [1, 2, 1, 2]

    def test_sequential_transactions_isolated(self):
        system, cnode, coordinator, nodes, participants = rig(1)
        done = system.sim.event()

        def body():
            outcomes = []
            for value in (b"1", b"2", b"3"):
                outcome, _ = yield from coordinator.run_transaction(
                    {"cab-p0": (b"counter", value)}
                )
                outcomes.append(outcome)
            done.succeed(outcomes)

        cnode.runtime.fork_application(body(), "coord")
        assert system.run_until(done, limit=seconds(30)) == ["committed"] * 3
        system.run(until=system.now + ms(1))
        assert participants[0].data[b"counter"] == b"3"

    def test_commit_survives_lost_frames(self):
        """RPC retransmission carries 2PC through a lossy fabric."""
        system, cnode, coordinator, nodes, participants = rig()
        system.attach_fault_plan(FaultPlan(7, [FaultSpec(DROP, probability=0.25)]))
        done = system.sim.event()

        def body():
            outcome, _txn = yield from coordinator.run_transaction(
                {"cab-p0": (b"x", b"1"), "cab-p1": (b"y", b"2")}
            )
            done.succeed(outcome)

        cnode.runtime.fork_application(body(), "coord")
        assert system.run_until(done, limit=seconds(120)) == "committed"
        system.run(until=system.now + ms(5))
        assert participants[0].data == {b"x": b"1"}
        assert participants[1].data == {b"y": b"2"}
        assert system.faults.stats.value("fault_drop") > 0


class TestLockManager:
    def test_write_lock_excludes(self):
        system, cnode, coordinator, nodes, _participants = rig(1)
        LockManager(nodes[0])
        done = system.sim.event()
        timeline = []

        def txn_one():
            yield from coordinator.acquire_lock(nodes[0], 101, b"res", "write")
            timeline.append(("t1-acquired", system.now))
            yield from cnode.runtime.ops.sleep(ms(2))
            yield from coordinator.release_lock(nodes[0], 101, b"res")
            timeline.append(("t1-released", system.now))

        def txn_two():
            yield from cnode.runtime.ops.sleep(ms(1))  # start second
            yield from coordinator.acquire_lock(nodes[0], 102, b"res", "write")
            timeline.append(("t2-acquired", system.now))
            yield from coordinator.release_lock(nodes[0], 102, b"res")
            done.succeed()

        cnode.runtime.fork_application(txn_one(), "t1")
        cnode.runtime.fork_application(txn_two(), "t2")
        system.run_until(done, limit=seconds(30))
        events = dict(timeline)
        assert events["t2-acquired"] >= events["t1-released"]

    def test_read_locks_share(self):
        system, cnode, coordinator, nodes, _participants = rig(1)
        LockManager(nodes[0])
        done = system.sim.event()
        acquired = []

        def reader(txn_id):
            def body():
                yield from coordinator.acquire_lock(nodes[0], txn_id, b"res", "read")
                acquired.append((txn_id, system.now))
                if len(acquired) == 2:
                    done.succeed()
                else:
                    # Hold the lock until both have it: sharing is the test.
                    while len(acquired) < 2:
                        yield from cnode.runtime.ops.sleep(ms(1))

            return body

        cnode.runtime.fork_application(reader(201)(), "r1")
        cnode.runtime.fork_application(reader(202)(), "r2")
        system.run_until(done, limit=seconds(30))
        assert len(acquired) == 2

    def test_writer_waits_for_readers(self):
        system, cnode, coordinator, nodes, _participants = rig(1)
        manager = LockManager(nodes[0])
        done = system.sim.event()
        timeline = {}

        def reader():
            yield from coordinator.acquire_lock(nodes[0], 301, b"res", "read")
            yield from cnode.runtime.ops.sleep(ms(3))
            yield from coordinator.release_lock(nodes[0], 301, b"res")
            timeline["reader-released"] = system.now

        def writer():
            yield from cnode.runtime.ops.sleep(ms(1))
            yield from coordinator.acquire_lock(nodes[0], 302, b"res", "write")
            timeline["writer-acquired"] = system.now
            yield from coordinator.release_lock(nodes[0], 302, b"res")
            done.succeed()

        cnode.runtime.fork_application(reader(), "r")
        cnode.runtime.fork_application(writer(), "w")
        system.run_until(done, limit=seconds(30))
        assert timeline["writer-acquired"] >= timeline["reader-released"]
        assert manager.stats.value("locks_granted") == 2
