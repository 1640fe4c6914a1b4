"""The Nectar network fabric: HUB crossbars, routing, the network builder."""

from repro.hub.crossbar import Hub
from repro.hub.network import NectarNetwork
from repro.hub.routing import Topology

__all__ = [
    "Hub",
    "NectarNetwork",
    "Topology",
]
