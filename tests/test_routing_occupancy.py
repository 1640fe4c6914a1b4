"""Topology port-occupancy validation.

A (hub, port) can carry either one CAB's fibers or one inter-HUB link,
never both and never two of either.  ``Topology`` is the one record of
that wiring, so these checks run once, there; an error names what already
holds the port.
"""

import pytest

from repro.errors import RouteError
from repro.hub.crossbar import Hub
from repro.hub.routing import Topology
from repro.sim.core import Simulator


@pytest.fixture
def rig():
    sim = Simulator()
    topology = Topology()
    hub_a = Hub(sim, "hub-a", ports=8)
    hub_b = Hub(sim, "hub-b", ports=8)
    topology.add_hub(hub_a)
    topology.add_hub(hub_b)
    return topology, hub_a, hub_b


def test_place_cab_rejects_port_with_inter_hub_link(rig):
    topology, hub_a, hub_b = rig
    topology.link_hubs(hub_a, 7, hub_b, 7)
    with pytest.raises(RouteError, match="carries an inter-hub link to hub-b"):
        topology.place_cab("cab-x", hub_a, 7)
    # The other endpoint is equally taken.
    with pytest.raises(RouteError, match="carries an inter-hub link to hub-a"):
        topology.place_cab("cab-x", hub_b, 7)


def test_link_hubs_rejects_cab_occupied_port(rig):
    topology, hub_a, hub_b = rig
    topology.place_cab("cab-x", hub_a, 3)
    with pytest.raises(RouteError, match="already occupied by CAB 'cab-x'"):
        topology.link_hubs(hub_a, 3, hub_b, 7)
    with pytest.raises(RouteError, match="already occupied by CAB 'cab-x'"):
        topology.link_hubs(hub_b, 7, hub_a, 3)


def test_link_hubs_rejects_linked_port(rig):
    topology, hub_a, hub_b = rig
    topology.link_hubs(hub_a, 7, hub_b, 7)
    with pytest.raises(RouteError, match="hub-a port 7 carries an inter-hub link to hub-b"):
        topology.link_hubs(hub_b, 5, hub_a, 7)
    # A refused link books neither end: hub-b port 5 is still free.
    topology.link_hubs(hub_a, 6, hub_b, 5)


def test_place_cab_rejects_port_with_other_cab(rig):
    topology, hub_a, _hub_b = rig
    topology.place_cab("cab-x", hub_a, 0)
    with pytest.raises(RouteError, match="already occupied by CAB 'cab-x'"):
        topology.place_cab("cab-y", hub_a, 0)


def test_valid_placements_still_accepted(rig):
    topology, hub_a, hub_b = rig
    topology.link_hubs(hub_a, 7, hub_b, 7)
    topology.place_cab("cab-x", hub_a, 0)
    topology.place_cab("cab-y", hub_b, 0)
    assert topology.compute_route("cab-x", "cab-y") == (7, 0)


class TestCabOnRoute:
    def _topology(self):
        sim = Simulator()
        hub0 = Hub(sim, "hub0", ports=8)
        hub1 = Hub(sim, "hub1", ports=8)
        topology = Topology()
        topology.add_hub(hub0)
        topology.add_hub(hub1)
        topology.place_cab("cab-a", hub0, 0)
        topology.place_cab("cab-b", hub0, 1)
        topology.place_cab("cab-c", hub1, 0)
        topology.link_hubs(hub0, 7, hub1, 7)
        return topology

    def test_resolves_local_and_multi_hop_routes(self):
        topology = self._topology()
        for src, dst in (("cab-a", "cab-b"), ("cab-a", "cab-c"), ("cab-c", "cab-b")):
            route = topology.compute_route(src, dst)
            assert topology.cab_on_route(src, route) == dst

    def test_empty_route_is_loopback(self):
        assert self._topology().cab_on_route("cab-a", ()) == "cab-a"

    def test_malformed_routes_raise(self):
        topology = self._topology()
        with pytest.raises(RouteError):
            topology.cab_on_route("cab-a", (7,))  # ends on the inter-hub link
        with pytest.raises(RouteError):
            topology.cab_on_route("cab-a", (5,))  # unwired port
        with pytest.raises(RouteError):
            topology.cab_on_route("cab-a", (1, 0))  # hops left after a CAB
