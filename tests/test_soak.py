"""Soak test: mixed concurrent traffic, then a full resource audit.

Every transport at once — TCP streams, RMP, datagrams, pings, RPCs — over a
lossy fabric for a long stretch of simulated time; afterwards the buffer
heaps must be clean (no leaked message buffers) and every invariant intact.
"""

import pytest

from repro.faults import CORRUPT, FaultPlan, FaultSpec
from repro.protocols.headers import NectarTransportHeader
from repro.system import NectarSystem
from repro.units import ms, seconds


def test_mixed_traffic_soak_leaves_no_leaks():
    system = NectarSystem()
    hub = system.add_hub("hub0")
    a = system.add_node("cab-a", hub, 0)
    b = system.add_node("cab-b", hub, 1)
    c = system.add_node("cab-c", hub, 2)
    system.attach_fault_plan(FaultPlan(13, [FaultSpec(CORRUPT, probability=0.02)]))

    finished = []
    total_tasks = 5

    # --- TCP stream a -> b -------------------------------------------------
    tcp_inbox = b.runtime.mailbox("soak-tcp")
    b.tcp.listen(7000, lambda conn: tcp_inbox)
    tcp_payload = bytes(range(256)) * 60  # 15 KB

    def tcp_client():
        inbox = a.runtime.mailbox("soak-tcp-cli")
        conn = yield from a.tcp.connect(6000, b.ip_address, 7000, inbox)
        yield from a.tcp.send_direct(conn, tcp_payload)

    def tcp_collector():
        received = 0
        while received < len(tcp_payload):
            msg = yield from tcp_inbox.begin_get()
            received += msg.size
            yield from tcp_inbox.end_get(msg)
        finished.append("tcp")

    # --- RMP stream a -> c ---------------------------------------------------
    rmp_inbox = c.runtime.mailbox("soak-rmp")
    chan = a.rmp.open(100, c.node_id, 200)
    c.rmp.open(200, a.node_id, 100, deliver_mailbox=rmp_inbox)

    def rmp_sender():
        for index in range(12):
            yield from a.rmp.send(chan, bytes([index]) * 700)

    def rmp_receiver():
        for _ in range(12):
            msg = yield from rmp_inbox.begin_get()
            yield from rmp_inbox.end_get(msg)
        finished.append("rmp")

    # --- datagram chatter b -> c ----------------------------------------------
    dg_inbox = c.runtime.mailbox("soak-dg")
    c.datagram.bind(55, dg_inbox)

    def dg_sender():
        for index in range(25):
            yield from b.datagram.send(1, c.node_id, 55, bytes([index]) * 64)
            yield from b.runtime.ops.sleep(ms(1))
        finished.append("dg-send")

    def dg_drain():
        # Datagrams are unreliable under corruption: drain whatever arrives.
        while True:
            msg = yield from dg_inbox.begin_get()
            yield from dg_inbox.end_get(msg)

    # --- RPC pounding c -> a ------------------------------------------------------
    rpc_mailbox = a.runtime.mailbox("soak-rpc")
    a.rpc.serve(900, rpc_mailbox)

    def rpc_server():
        while True:
            msg = yield from rpc_mailbox.begin_get()
            header = NectarTransportHeader.unpack(
                msg.read(0, NectarTransportHeader.SIZE)
            )
            body = msg.read(NectarTransportHeader.SIZE)
            yield from rpc_mailbox.end_get(msg)
            yield from a.rpc.respond(header, body)

    def rpc_client():
        port = c.rpc.allocate_client_port()
        for index in range(15):
            reply = yield from c.rpc.request(
                port, a.node_id, 900, bytes([index]) * 128
            )
            assert reply == bytes([index]) * 128
        finished.append("rpc")

    # --- pings b <-> a ------------------------------------------------------------
    pings = {"replies": 0}
    b.icmp.on_echo_reply = lambda header, payload: pings.__setitem__(
        "replies", pings["replies"] + 1
    )

    def pinger():
        for sequence in range(10):
            yield from b.icmp.send_echo_request(
                a.ip_address, identifier=3, sequence=sequence, payload=b"soak"
            )
            yield from b.runtime.ops.sleep(ms(2))
        finished.append("ping")

    a.runtime.fork_application(tcp_client(), "tcp-c")
    b.runtime.fork_application(tcp_collector(), "tcp-s")
    a.runtime.fork_application(rmp_sender(), "rmp-s")
    c.runtime.fork_application(rmp_receiver(), "rmp-r")
    b.runtime.fork_application(dg_sender(), "dg-s")
    c.runtime.fork_system(dg_drain(), "dg-d")
    a.runtime.fork_system(rpc_server(), "rpc-srv")
    c.runtime.fork_application(rpc_client(), "rpc-cli")
    b.runtime.fork_application(pinger(), "ping")

    system.run(until=seconds(5))
    assert sorted(finished) == ["dg-send", "ping", "rmp", "rpc", "tcp"], finished

    # Resource audit: no leaked buffers anywhere (every mailbox drained or
    # holding only what is still legitimately queued).
    for node in (a, b, c):
        node.runtime.heap.check_invariants()
        queued = sum(
            sum(m.block_size for m in mbox.queue)
            for mbox in node.runtime.mailboxes.values()
        )
        # Allocated = messages still queued + per-mailbox cached buffers.
        cached = sum(
            mbox._cached_size
            for mbox in node.runtime.mailboxes.values()
            if mbox._cached_addr is not None
        )
        leak = node.runtime.heap.allocated_bytes - queued - cached
        assert leak == 0, f"{node.name}: {leak} bytes leaked"
    # At least some corruption really happened (the soak was adversarial).
    assert system.faults.stats.value("fault_corrupt") > 0
