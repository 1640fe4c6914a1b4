"""Tests for the HUB crossbar, routing, and fabric behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HubError, RouteError
from repro.hub.crossbar import Hub, PortAttachment, PortKind
from repro.hub.routing import Topology
from repro.system import NectarSystem
from repro.units import seconds


class TestCrossbar:
    def test_port_range_checked(self):
        from repro.sim import Simulator

        hub = Hub(Simulator(), "h", ports=16)
        with pytest.raises(HubError):
            hub.attachment(16)
        with pytest.raises(HubError):
            hub.acquire_output(-1)

    def test_double_attach_rejected(self):
        from repro.sim import Simulator

        hub = Hub(Simulator(), "h")
        hub.attach(0, PortAttachment(PortKind.CAB, object()))
        with pytest.raises(HubError, match="already attached"):
            hub.attach(0, PortAttachment(PortKind.CAB, object()))

    def test_unattached_port_lookup_fails(self):
        from repro.sim import Simulator

        hub = Hub(Simulator(), "h")
        with pytest.raises(HubError, match="not attached"):
            hub.attachment(3)

    def test_output_arbitration_serializes(self):
        from repro.sim import Simulator

        sim = Simulator()
        hub = Hub(sim, "h")
        order = []

        def user(tag, hold):
            wait = hub.acquire_output(5)
            if wait is not None:
                yield wait
            order.append((tag, sim.now, wait is None))
            yield hold
            hub.release_output(5)

        sim.process(user("a", 100))
        sim.process(user("b", 100))
        sim.run()
        # The free port is taken in place; the busy one is waited for.
        assert order == [("a", 0, True), ("b", 100, False)]

    def test_tiny_hub_rejected(self):
        from repro.sim import Simulator

        with pytest.raises(HubError):
            Hub(Simulator(), "h", ports=1)


class TestRouting:
    def _mesh(self, n_hubs):
        """A line of hubs with one CAB on each: cab-0 .. cab-(n-1)."""
        from repro.sim import Simulator

        sim = Simulator()
        topo = Topology()
        hubs = [Hub(sim, f"h{i}") for i in range(n_hubs)]
        for i, hub in enumerate(hubs):
            topo.add_hub(hub)
            cab = object()
            hub.attach(0, PortAttachment(PortKind.CAB, cab))
            topo.place_cab(f"cab-{i}", hub, 0)
        for i in range(n_hubs - 1):
            hubs[i].attach(15, PortAttachment(PortKind.HUB, hubs[i + 1], 14))
            hubs[i + 1].attach(14, PortAttachment(PortKind.HUB, hubs[i], 15))
            topo.link_hubs(hubs[i], 15, hubs[i + 1], 14)
        return topo, hubs

    def test_loopback_route_is_empty(self):
        topo, _ = self._mesh(1)
        assert topo.compute_route("cab-0", "cab-0") == ()

    def test_single_hub_route(self):
        topo, _ = self._mesh(1)
        from repro.sim import Simulator

        # Two CABs on one hub.
        sim = Simulator()
        topo2 = Topology()
        hub = Hub(sim, "h")
        hub.attach(0, PortAttachment(PortKind.CAB, object()))
        hub.attach(1, PortAttachment(PortKind.CAB, object()))
        topo2.add_hub(hub)
        topo2.place_cab("a", hub, 0)
        topo2.place_cab("b", hub, 1)
        assert topo2.compute_route("a", "b") == (1,)
        assert topo2.compute_route("b", "a") == (0,)

    def test_multi_hop_route_length(self):
        topo, _ = self._mesh(4)
        route = topo.compute_route("cab-0", "cab-3")
        assert len(route) == 4  # three inter-hub hops + final delivery port
        assert route == (15, 15, 15, 0)

    def test_route_validation(self):
        topo, _ = self._mesh(3)
        route = topo.compute_route("cab-0", "cab-2")
        topo.validate_route("cab-0", route)
        with pytest.raises(RouteError):
            topo.validate_route("cab-0", (15,))  # ends on inter-hub link

    def test_unknown_cab_rejected(self):
        topo, _ = self._mesh(2)
        with pytest.raises(RouteError):
            topo.compute_route("cab-0", "nope")

    def test_disconnected_hubs_unroutable(self):
        from repro.sim import Simulator

        sim = Simulator()
        topo = Topology()
        h0, h1 = Hub(sim, "h0"), Hub(sim, "h1")
        for i, hub in enumerate((h0, h1)):
            hub.attach(0, PortAttachment(PortKind.CAB, object()))
            topo.add_hub(hub)
            topo.place_cab(f"cab-{i}", hub, 0)
        with pytest.raises(RouteError, match="no path"):
            topo.compute_route("cab-0", "cab-1")

    @given(n_hubs=st.integers(min_value=2, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_routes_reach_destination_property(self, n_hubs):
        topo, hubs = self._mesh(n_hubs)
        for src in range(n_hubs):
            for dst in range(n_hubs):
                if src == dst:
                    continue
                route = topo.compute_route(f"cab-{src}", f"cab-{dst}")
                topo.validate_route(f"cab-{src}", route)
                # Number of hubs traversed equals the route length.
                assert len(route) == abs(dst - src) + 1


class TestFabricEndToEnd:
    def test_messages_flow_across_three_hubs(self):
        system = NectarSystem()
        h0 = system.add_hub("h0")
        h1 = system.add_hub("h1")
        h2 = system.add_hub("h2")
        system.connect_hubs(h0, 15, h1, 0)
        system.connect_hubs(h1, 15, h2, 0)
        a = system.add_node("a", h0, 1)
        b = system.add_node("b", h2, 1)
        inbox = b.runtime.mailbox("inbox")
        b.datagram.bind(5, inbox)
        done = system.sim.event()

        def sender():
            yield from a.datagram.send(1, b.node_id, 5, b"across the mesh")

        def receiver():
            msg = yield from inbox.begin_get()
            done.succeed(msg.read(0, 15))
            yield from inbox.end_get(msg)

        a.runtime.fork_application(sender(), "s")
        b.runtime.fork_application(receiver(), "r")
        assert system.run_until(done, limit=seconds(1)) == b"across the mesh"

    def test_output_port_contention_serializes_senders(self):
        """Two CABs streaming to the same destination share its hub port."""
        system = NectarSystem()
        hub = system.add_hub("hub0")
        a = system.add_node("a", hub, 0)
        b = system.add_node("b", hub, 1)
        c = system.add_node("c", hub, 2)
        inbox = c.runtime.mailbox("inbox")
        c.datagram.bind(5, inbox)
        done = system.sim.event()
        count = 6
        payload = b"z" * 4096

        def sender(node):
            def body():
                for _ in range(count):
                    yield from node.datagram.send(1, c.node_id, 5, payload)

            return body

        def receiver():
            for _ in range(2 * count):
                msg = yield from inbox.begin_get()
                yield from inbox.end_get(msg)
            done.succeed(system.now)

        a.runtime.fork_application(sender(a)(), "sa")
        b.runtime.fork_application(sender(b)(), "sb")
        c.runtime.fork_application(receiver(), "rc")
        end = system.run_until(done, limit=seconds(5))
        # 12 x 4 KB through one 100 Mbit/s port: at least the serialized
        # wire time must have elapsed.
        wire_ns = int(12 * (4096 + 44) * 80)
        assert end >= wire_ns


def test_path_plans_are_cached_until_the_wiring_changes():
    """A frame's plan is resolved once per (source CAB, route); attaching
    a CAB or linking HUBs drops every cached plan with the routes."""
    system = NectarSystem()
    h0 = system.add_hub("h0")
    h1 = system.add_hub("h1")
    a = system.add_node("a", h0, 1)
    b = system.add_node("b", h0, 2)
    network = system.network
    route = network.route_for("a", "b")
    plan = network.plan_path(a.cab, route)
    assert network.plan_path(a.cab, route) is plan
    assert plan.hops == ((h0, 2),) and plan.dest is b.cab
    assert network.plan_path(b.cab, ()) is not network.plan_path(a.cab, ())
    system.connect_hubs(h0, 15, h1, 0)
    replanned = network.plan_path(a.cab, route)
    assert replanned is not plan and replanned == plan
    system.add_node("c", h1, 1)
    assert network.plan_path(a.cab, route) is not replanned


def test_a_path_plan_is_a_loopback_or_one_cab_port():
    """Routes that leave the source HUB go out through the inter-HUB seam,
    so a plan never spans HUBs: a two-hop route is refused."""
    system = NectarSystem()
    h0 = system.add_hub("h0")
    h1 = system.add_hub("h1")
    a = system.add_node("a", h0, 1)
    system.add_node("c", h1, 1)
    system.connect_hubs(h0, 15, h1, 0)
    network = system.network
    route = network.route_for("a", "c")
    assert route == (15, 1)
    with pytest.raises(RouteError, match="loopback or one CAB port"):
        network.plan_path(a.cab, route)
    with pytest.raises(RouteError, match="loopback or one CAB port"):
        network.plan_path(a.cab, (15,))
