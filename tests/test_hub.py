"""Tests for the HUB crossbar, routing, and fabric behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HubError, RouteError, WiringError
from repro.hub.crossbar import Hub
from repro.hub.routing import Topology
from repro.system import NectarSystem
from repro.units import seconds


class TestCrossbar:
    """The crossbar arbitrates output ports; what a port is wired to is
    the wiring table's (``Topology``), so the wiring checks run there."""

    def test_port_range_checked(self):
        from repro.sim import Simulator

        hub = Hub(Simulator(), "h", ports=16)
        topo = Topology()
        with pytest.raises(WiringError, match="h port 16 out of range 0..15"):
            topo.place_cab("a", hub, 16)
        with pytest.raises(WiringError, match="out of range"):
            topo.link_hubs(hub, -1, Hub(Simulator(), "g"), 0)
        with pytest.raises(WiringError, match="out of range"):
            topo.wired_to(hub, 16)
        with pytest.raises(HubError):
            hub.acquire_output(-1)

    def test_double_attach_rejected(self):
        from repro.sim import Simulator

        hub = Hub(Simulator(), "h")
        topo = Topology()
        topo.place_cab("a", hub, 0)
        with pytest.raises(WiringError, match="already occupied by CAB 'a'"):
            topo.place_cab("b", hub, 0)
        # Both error kinds a caller may catch still catch it.
        with pytest.raises(HubError):
            topo.place_cab("b", hub, 0)
        with pytest.raises(RouteError):
            topo.place_cab("b", hub, 0)

    def test_unattached_port_lookup_fails(self):
        from repro.sim import Simulator

        hub = Hub(Simulator(), "h")
        topo = Topology()
        topo.add_hub(hub)
        with pytest.raises(WiringError, match="h port 3 is not wired"):
            topo.wired_to(hub, 3)

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
            topo.place_cab(f"cab-{i}", hub, 0)
        for i in range(n_hubs - 1):
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
        assert topo.cab_on_route("cab-0", route) == "cab-2"
        with pytest.raises(RouteError, match="ends on the inter-hub link to h1"):
            topo.cab_on_route("cab-0", (15,))
        with pytest.raises(RouteError, match="reaches CAB 'cab-1' at hop 1"):
            topo.cab_on_route("cab-0", (15, 0, 15))

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
                assert topo.cab_on_route(f"cab-{src}", route) == f"cab-{dst}"
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

    def test_a_frame_to_its_own_cab_loops_back(self):
        """An empty route takes no crossbar port: the frame streams back
        into the sender's own input FIFO."""
        system = NectarSystem()
        hub = system.add_hub("hub0")
        a = system.add_node("a", hub, 0)
        inbox = a.runtime.mailbox("inbox")
        a.datagram.bind(5, inbox)
        done = system.sim.event()

        def sender():
            yield from a.datagram.send(1, a.node_id, 5, b"to myself")

        def receiver():
            msg = yield from inbox.begin_get()
            done.succeed(msg.read(0, 9))
            yield from inbox.end_get(msg)

        a.runtime.fork_application(sender(), "s")
        a.runtime.fork_application(receiver(), "r")
        assert system.run_until(done, limit=seconds(1)) == b"to myself"
        assert system.network.stats.value("frames_delivered") == 1
        assert hub.stats.snapshot() == {}  # no output port was granted

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


def test_a_route_reaching_a_cab_with_hops_left_is_refused():
    """The link process dispatches a frame on its first hop; a route whose
    first hop is a CAB port of the source HUB must end there."""
    from repro.hw.fiber import Frame

    system = NectarSystem()
    h0 = system.add_hub("h0")
    a = system.add_node("a", h0, 1)
    system.add_node("b", h0, 2)
    frame = Frame(route=(2, 1), payload=bytearray(b"\x01"), src="a")
    frame.seal()

    def push():
        for chunk in frame.chunks():
            wait = a.cab.fiber_out.fifo.wait_space(chunk.length)
            if wait is not None:
                yield wait
            a.cab.fiber_out.fifo.push(chunk)

    system.sim.process(push(), name="push")
    with pytest.raises(RouteError, match="reaches CAB 'b' with hops left"):
        system.sim.run(until=system.sim.now + 1_000_000)


def test_a_cab_on_a_linked_port_names_the_link():
    system = NectarSystem()
    h0 = system.add_hub("h0")
    h1 = system.add_hub("h1")
    system.connect_hubs(h0, 7, h1, 0)
    with pytest.raises(HubError, match="h0 port 7 carries an inter-hub link to h1"):
        system.add_node("a", h0, 7)


def test_a_refused_port_leaves_nothing_behind():
    """The port is refused before the node mounts its counters, so the
    same name can be placed on a free port right after."""
    system = NectarSystem()
    h0 = system.add_hub("h0")
    h1 = system.add_hub("h1")
    system.connect_hubs(h0, 7, h1, 0)
    before = system.metrics.mounts()
    with pytest.raises(WiringError, match="cannot place CAB 'a': h0 port 7"):
        system.add_node("a", h0, 7)
    mounted = system.metrics.mounts()
    assert mounted == before
    assert [prefix for prefix in mounted if prefix.split(".")[0] == "a"] == []
    node = system.add_node("a", h0, 3)
    assert system.network.topology.hub_of("a") == (h0, 3)
    assert "a.hw" in system.metrics.mounts() and node.name == "a"


def test_a_name_placed_as_a_ghost_is_refused_before_the_node_is_built():
    """A ghost (a CAB simulated by another shard) holds its name: placing a
    live CAB under it is refused before the node mounts anything."""
    system = NectarSystem()
    h0 = system.add_hub("h0")
    system.add_remote_node("g", h0, 1)
    before = system.metrics.mounts()
    with pytest.raises(RouteError, match="CAB 'g' already placed"):
        system.add_node("g", h0, 2)
    assert system.metrics.mounts() == before
    assert "g" not in system.nodes
    assert system.network.topology.hub_of("g") == (h0, 1)


def test_a_refused_ghost_takes_no_id():
    """A ghost refused for its port keeps no registry entry: the retry on a
    free port takes the id the refused call would have had, as it does on
    every other shard of the fleet."""
    system = NectarSystem()
    h0 = system.add_hub("h0")
    h1 = system.add_hub("h1")
    system.connect_hubs(h0, 7, h1, 0)
    twin = NectarSystem()
    expected = twin.add_remote_node("g", twin.add_hub("h0"), 3)
    with pytest.raises(WiringError, match="cannot place CAB 'g': h0 port 7"):
        system.add_remote_node("g", h0, 7)
    assert system.add_remote_node("g", h0, 3) == expected
    assert system.add_remote_node("g2", h0, 4) == expected + 1
    assert system.network.topology.hub_of("g") == (h0, 3)
