"""A paper-scale deployment: ~26 hosts on 2 HUBs (paper Sec. 6).

"Currently the prototype system consists of 2 HUBs and 26 hosts in
full-time use."  This test builds that system shape and drives concurrent
traffic across it.
"""

import pytest

from repro.system import NectarSystem
from repro.units import seconds


@pytest.fixture(scope="module")
def deployment():
    system = NectarSystem()
    hub_a = system.add_hub("hub-a")
    hub_b = system.add_hub("hub-b")
    system.connect_hubs(hub_a, 15, hub_b, 15)
    nodes = []
    # 13 CABs per hub (port 15 is the inter-hub link).
    for index in range(13):
        nodes.append(system.add_node(f"cab-a{index}", hub_a, index))
    for index in range(13):
        nodes.append(system.add_node(f"cab-b{index}", hub_b, index))
    return system, nodes


def test_twenty_six_nodes_route_everywhere(deployment):
    system, nodes = deployment
    for src in (nodes[0], nodes[13]):
        for dst in nodes:
            if dst is src:
                continue
            route = system.network.route_for(src.name, dst.name)
            assert 1 <= len(route) <= 2
            assert system.network.topology.cab_on_route(src.name, route) == dst.name


def test_all_pairs_same_hub_single_hop(deployment):
    system, nodes = deployment
    route = system.network.route_for("cab-a0", "cab-a12")
    assert len(route) == 1
    route = system.network.route_for("cab-a0", "cab-b5")
    assert len(route) == 2


def test_concurrent_all_to_one_traffic(deployment):
    """Half the machines send to one collector through both HUBs."""
    system, nodes = deployment
    collector = nodes[0]
    inbox = collector.runtime.mailbox("collector")
    collector.datagram.bind(77, inbox)
    senders = nodes[1:13] + nodes[13:20]  # mix of same-hub and cross-hub
    done = system.sim.event()

    def make_sender(node, tag):
        def body():
            for round_index in range(3):
                yield from node.datagram.send(
                    1, collector.node_id, 77, bytes([tag, round_index]) * 50
                )

        return body

    def receive_all():
        expected = len(senders) * 3
        seen = []
        for _ in range(expected):
            msg = yield from inbox.begin_get()
            seen.append(tuple(msg.read(0, 2)))
            yield from inbox.end_get(msg)
        done.succeed(seen)

    for tag, node in enumerate(senders):
        node.runtime.fork_application(make_sender(node, tag)(), f"send-{tag}")
    collector.runtime.fork_application(receive_all(), "collect")
    seen = system.run_until(done, limit=seconds(30))
    assert len(seen) == len(senders) * 3
    # Per-sender FIFO: round indices arrive in order for each tag.
    per_sender = {}
    for tag, round_index in seen:
        per_sender.setdefault(tag, []).append(round_index)
    for rounds in per_sender.values():
        assert rounds == sorted(rounds)


def test_cross_hub_rpc_mesh(deployment):
    """Every fourth node calls a service on the node across the fabric."""
    system, nodes = deployment
    from repro.protocols.headers import NectarTransportHeader

    server = nodes[20]
    server_mailbox = server.runtime.mailbox("mesh-server")
    server.rpc.serve(500, server_mailbox)

    def service():
        while True:
            msg = yield from server_mailbox.begin_get()
            header = NectarTransportHeader.unpack(
                msg.read(0, NectarTransportHeader.SIZE)
            )
            body = msg.read(NectarTransportHeader.SIZE)
            yield from server_mailbox.end_get(msg)
            yield from server.rpc.respond(header, body[::-1])

    server.runtime.fork_system(service(), "mesh-service")
    done = system.sim.event()
    replies = []

    def make_client(node, tag):
        def body():
            port = node.rpc.allocate_client_port()
            reply = yield from node.rpc.request(
                port, server.node_id, 500, f"client-{tag}".encode()
            )
            replies.append(reply)
            if len(replies) == 5:
                done.succeed()

        return body

    for tag, node in enumerate(nodes[0:20:4]):
        node.runtime.fork_application(make_client(node, tag)(), f"cli-{tag}")
    system.run_until(done, limit=seconds(30))
    assert sorted(replies) == sorted(
        f"client-{tag}".encode()[::-1] for tag in range(5)
    )
