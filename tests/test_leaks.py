"""No buffer outlives a run: heap accounting at quiescence, in every run.

A mailbox keeps one cached buffer for its whole life (paper Sec. 3.3);
everything else a run takes from a CAB's heap must be back by the time
the simulation goes quiet.  So at the end of a run each CAB heap's live
allocations are exactly its mailboxes' cached buffers, no cached buffer
is still held by a message, and every mailbox queue is empty.  Double
frees and overlap are covered by ``tests/test_heap.py``; a view used after
its buffer's last release raises ``BufError`` (``tests/test_buf.py``).
"""

import pytest

from repro.apps.traffic import measure_rtt
from repro.bench.harness import two_nodes
from repro.faults.campaign import run_campaign
from tests.conftest import shrunk_case

TABLE1_KINDS = ["datagram", "rmp", "request-response", "udp"]


def heap_leaks(system) -> list:
    """Every way a quiescent system's CABs still hold message storage."""
    leaks = []
    for name, node in sorted(system.nodes.items()):
        runtime = node.runtime
        boxes = runtime.mailboxes.values()
        live = runtime.heap.allocation_count
        cached = sum(1 for box in boxes if box._cached_addr is not None)
        if live != cached:
            leaks.append(f"{name}: {live} live heap blocks, {cached} cached buffers")
        for box in boxes:
            if box._cached_in_use:
                leaks.append(f"{name}: mailbox {box.name!r} cached buffer still held")
            if box.queue:
                leaks.append(f"{name}: mailbox {box.name!r} holds {len(box.queue)}")
    return leaks


def table1_run(kind: str):
    system, node_a, node_b = two_nodes()
    measure_rtt(system, node_a, node_b, kind, rounds=8, warmup=2)
    system.run()
    return system, node_a


@pytest.mark.parametrize("kind", TABLE1_KINDS)
def test_table1_transports_leave_only_cached_buffers(kind):
    system, _node_a = table1_run(kind)
    assert heap_leaks(system) == []
    expected = {"cab-a": 7 if kind == "request-response" else 8, "cab-b": 8}
    for name, blocks in expected.items():
        assert system.nodes[name].runtime.heap.allocation_count == blocks


def test_chaos_lossy_link_leaves_only_cached_buffers():
    report = run_campaign(shrunk_case("lossy-link", 7))
    assert report.passed
    assert heap_leaks(report.run.system) == []


@pytest.mark.parametrize("size", [512, 64], ids=["heap-block", "cached-slot"])
def test_a_begin_put_never_freed_is_a_leak(size):
    system, node_a = table1_run("datagram")
    runtime = node_a.runtime
    mailbox = runtime.mailbox("leaky")

    def leak():
        yield from mailbox.begin_put(size)  # never end_put / abort_put

    runtime.fork_application(leak(), "leaker")
    system.run()
    leaks = heap_leaks(system)
    assert len(leaks) == 1 and leaks[0].startswith("cab-a: ")
