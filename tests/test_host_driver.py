"""Tests for the host side: driver, mailbox access modes, syncs, signaling."""

import pytest

from repro.errors import NectarError
from repro.host.driver import MODE_RPC, MODE_SHARED
from repro.host.machine import HostedNode
from repro.system import NectarSystem
from repro.units import ms, seconds, us


@pytest.fixture
def rig():
    system = NectarSystem()
    hub = system.add_hub("hub0")
    node_a = system.add_node("cab-a", hub, 0)
    node_b = system.add_node("cab-b", hub, 1)
    hosted_a = HostedNode(system, node_a)
    hosted_b = HostedNode(system, node_b)
    return system, hosted_a, hosted_b


def test_unmapped_access_rejected(rig):
    system, ha, _hb = rig
    mbox = ha.node.runtime.mailbox("m")
    done = system.sim.event()

    def proc():
        try:
            yield from ha.driver.begin_put(mbox, 64)
        except NectarError as exc:
            done.succeed(str(exc))

    ha.host.fork_process(proc(), "p")
    assert "not mapped" in system.run_until(done, limit=seconds(1))


def test_host_put_wakes_cab_thread(rig):
    """Host writes a message; a blocked CAB thread is woken via the doorbell."""
    system, ha, _hb = rig
    mbox = ha.node.runtime.mailbox("host-to-cab")
    done = system.sim.event()

    def cab_reader():
        msg = yield from mbox.begin_get()
        data = msg.read(0, 13)
        yield from mbox.end_get(msg)
        done.succeed(data)

    def host_writer():
        yield from ha.driver.map_cab_memory()
        msg = yield from ha.driver.begin_put(mbox, 64)
        yield from ha.driver.fill(msg, b"from the host")
        yield from ha.driver.end_put(mbox, msg)

    ha.node.runtime.fork_system(cab_reader(), "reader")
    ha.host.fork_process(host_writer(), "writer")
    assert system.run_until(done, limit=seconds(1)) == b"from the host"


def test_cab_put_read_by_polling_host(rig):
    system, ha, _hb = rig
    mbox = ha.node.runtime.mailbox("cab-to-host")
    done = system.sim.event()

    def cab_writer():
        yield from ha.node.runtime.ops.sleep(ms(1))
        msg = yield from mbox.begin_put(32)
        yield from ha.node.runtime.fill_message(msg, b"to the host")
        yield from mbox.end_put(msg)

    def host_reader():
        yield from ha.driver.map_cab_memory()
        msg = yield from ha.driver.begin_get(mbox, blocking=False)
        data = yield from ha.driver.read(msg, 0, 11)
        yield from ha.driver.end_get(mbox, msg)
        done.succeed(data)

    ha.node.runtime.fork_system(cab_writer(), "writer")
    ha.host.fork_process(host_reader(), "reader")
    assert system.run_until(done, limit=seconds(1)) == b"to the host"


def test_cab_put_read_by_blocking_host(rig):
    """The blocking path: driver sleep, host signal queue, host interrupt."""
    system, ha, _hb = rig
    mbox = ha.node.runtime.mailbox("cab-to-host")
    done = system.sim.event()

    def cab_writer():
        yield from ha.node.runtime.ops.sleep(ms(2))
        msg = yield from mbox.begin_put(32)
        yield from ha.node.runtime.fill_message(msg, b"wake up")
        yield from mbox.end_put(msg)

    def host_reader():
        yield from ha.driver.map_cab_memory()
        msg = yield from ha.driver.begin_get(mbox, blocking=True)
        data = yield from ha.driver.read(msg, 0, 7)
        yield from ha.driver.end_get(mbox, msg)
        done.succeed((data, system.now))

    ha.node.runtime.fork_system(cab_writer(), "writer")
    ha.host.fork_process(host_reader(), "reader")
    data, when = system.run_until(done, limit=seconds(1))
    assert data == b"wake up"
    assert when >= ms(2)


def test_rpc_mode_mailbox_roundtrip(rig):
    system, ha, _hb = rig
    mbox = ha.node.runtime.mailbox("rpc-mode")
    ha.driver.set_mailbox_mode(mbox, MODE_RPC)
    done = system.sim.event()

    def host_writer():
        yield from ha.driver.map_cab_memory()
        msg = yield from ha.driver.begin_put(mbox, 48)
        yield from ha.driver.fill(msg, b"via rpc")
        yield from ha.driver.end_put(mbox, msg)
        got = yield from ha.driver.begin_get(mbox)
        data = yield from ha.driver.read(got, 0, 7)
        yield from ha.driver.end_get(mbox, got)
        done.succeed(data)

    ha.host.fork_process(host_writer(), "writer")
    assert system.run_until(done, limit=seconds(1)) == b"via rpc"


def test_shared_mode_faster_than_rpc_mode(rig):
    """Paper Sec. 3.3: shared memory ~2x faster than the RPC implementation."""
    system, ha, _hb = rig
    shared = ha.node.runtime.mailbox("shared-mode")
    rpc = ha.node.runtime.mailbox("rpc-mode")
    ha.driver.set_mailbox_mode(shared, MODE_SHARED)
    ha.driver.set_mailbox_mode(rpc, MODE_RPC)
    done = system.sim.event()
    rounds = 20

    def bench():
        yield from ha.driver.map_cab_memory()
        times = {}
        for name, mbox in (("shared", shared), ("rpc", rpc)):
            start = system.now
            for _ in range(rounds):
                msg = yield from ha.driver.begin_put(mbox, 32)
                yield from ha.driver.fill(msg, b"x" * 32)
                yield from ha.driver.end_put(mbox, msg)
                got = yield from ha.driver.begin_get(mbox)
                yield from ha.driver.end_get(mbox, got)
            times[name] = system.now - start
        done.succeed(times)

    ha.host.fork_process(bench(), "bench")
    times = system.run_until(done, limit=seconds(5))
    assert times["shared"] < times["rpc"]
    assert times["rpc"] / times["shared"] > 1.5


def test_host_to_cab_rpc(rig):
    system, ha, _hb = rig
    done = system.sim.event()
    rt = ha.node.runtime

    def cab_side_work():
        yield from rt.ops.sleep(us(50))
        return "computed-on-cab"

    def host_proc():
        yield from ha.driver.map_cab_memory()
        result = yield from ha.driver.call_cab(cab_side_work)
        done.succeed(result)

    ha.host.fork_process(host_proc(), "p")
    assert system.run_until(done, limit=seconds(1)) == "computed-on-cab"


def test_sync_host_reader_cab_writer(rig):
    system, ha, _hb = rig
    done = system.sim.event()
    rt = ha.node.runtime
    sync = ha.driver.host_syncs.alloc_nocost()

    def cab_writer_fixed():
        yield from rt.ops.sleep(us(100))
        yield from sync.pool.write(sync, 0xBEEF)

    def host_reader():
        yield from ha.driver.map_cab_memory()
        value = yield from ha.driver.sync_read(sync)
        done.succeed(value)

    rt.fork_system(cab_writer_fixed(), "writer")
    ha.host.fork_process(host_reader(), "reader")
    assert system.run_until(done, limit=seconds(1)) == 0xBEEF


def test_sync_host_writer_cab_reader(rig):
    """Host Write is offloaded to the CAB through the signaling mechanism."""
    system, ha, _hb = rig
    done = system.sim.event()
    rt = ha.node.runtime
    sync = ha.driver.host_syncs.alloc_nocost()

    def cab_reader():
        value = yield from sync.pool.read(sync, rt.cpu)
        done.succeed(value)

    def host_writer():
        yield from ha.driver.map_cab_memory()
        yield from ha.driver.sync_write(sync, 424242)

    rt.fork_system(cab_reader(), "reader")
    ha.host.fork_process(host_writer(), "writer")
    assert system.run_until(done, limit=seconds(1)) == 424242


def test_host_condition_signal_between_hosts_processes(rig):
    system, ha, _hb = rig
    hc = ha.driver.new_host_condition("user-hc")
    done = system.sim.event()

    def waiter():
        yield from ha.driver.map_cab_memory()
        yield from ha.driver.wait_poll(hc)
        done.succeed(system.now)

    def signaller():
        yield from ha.driver.map_cab_memory()
        yield from ha.node.runtime.ops.sleep(0)  # noop ordering aid
        yield from ha.driver.signal_from_host(hc)

    ha.host.fork_process(waiter(), "waiter")
    ha.host.fork_process(signaller(), "signaller")
    assert system.run_until(done, limit=seconds(1)) > 0


def test_end_to_end_host_to_host_datagram(rig):
    """The Fig. 6 path: host A -> CAB A -> HUB -> CAB B -> host B."""
    system, ha, hb = rig
    from repro.protocols.headers import (
        NECTAR_KIND_DATA,
        NECTAR_PROTO_DATAGRAM,
        NectarTransportHeader,
    )

    inbox = hb.node.runtime.mailbox("user-inbox")
    hb.node.datagram.bind(900, inbox)
    done = system.sim.event()
    payload = b"host to host over nectar!"

    def sender():
        yield from ha.driver.map_cab_memory()
        send_mbox = ha.node.datagram.send_mailbox
        msg = yield from ha.driver.begin_put(
            send_mbox, NectarTransportHeader.SIZE + len(payload)
        )
        header = NectarTransportHeader(
            protocol=NECTAR_PROTO_DATAGRAM,
            kind=NECTAR_KIND_DATA,
            src_port=1,
            dst_node=hb.node.node_id,
            dst_port=900,
        )
        yield from ha.driver.fill(msg, header.pack() + payload)
        yield from ha.driver.end_put(send_mbox, msg)

    def receiver():
        yield from hb.driver.map_cab_memory()
        msg = yield from hb.driver.begin_get(inbox, blocking=False)
        data = yield from hb.driver.read(msg)
        yield from hb.driver.end_get(inbox, msg)
        done.succeed(data)

    ha.host.fork_process(sender(), "sender")
    hb.host.fork_process(receiver(), "receiver")
    assert system.run_until(done, limit=seconds(1)) == payload


def test_host_end_get_wakes_a_cab_thread_blocked_on_heap_space(rig):
    """A CAB thread fills the heap with queued messages and blocks in
    begin_put; the host's end_get frees one, rings the heap-wake doorbell,
    and the CAB's interrupt handler puts the thread back to work."""
    system, ha, _hb = rig
    runtime = ha.node.runtime
    mbox = runtime.mailbox("cab-to-host", cached_buffer_bytes=0)
    stamps = {}

    def cab_writer():
        # Two messages fill the largest free block; a third must wait.
        half = runtime.heap.largest_free_block() // 2 // 64 * 64
        stamps["live"] = runtime.heap.allocation_count
        for _ in range(2):
            msg = yield from mbox.begin_put(half)
            yield from mbox.end_put(msg)
        msg = yield from mbox.begin_put(half)
        stamps["resumed"] = system.now
        yield from mbox.end_put(msg)

    def host_reader(count):
        yield from ha.driver.map_cab_memory()
        for _ in range(count):
            msg = yield from ha.driver.begin_get(mbox)
            yield from ha.driver.end_get(mbox, msg)
        stamps.setdefault("end_get", system.now)

    runtime.fork_application(cab_writer(), "writer")
    system.run(until=ms(1))
    assert "resumed" not in stamps and len(runtime.heap_waiters) == 1
    ha.host.fork_process(host_reader(1), "reader")
    system.run()
    assert 0 < stamps["resumed"] - stamps["end_get"] < us(100)
    assert not runtime.heap_waiters
    assert system.metrics.counters("cab-a.sig") == {
        "cab-a.sig.popped": 1,
        "cab-a.sig.pushed": 1,
    }
    ha.host.fork_process(host_reader(2), "drain")
    system.run()
    assert not mbox.queue
    assert runtime.heap.allocation_count == stamps["live"]
