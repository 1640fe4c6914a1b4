"""Shared rig builders for the experiment drivers."""

from __future__ import annotations

from typing import Optional

from repro.host.machine import HostedNode
from repro.model.costs import CostModel
from repro.system import NectarNode, NectarSystem

__all__ = ["two_hosted_nodes", "two_nodes"]


def two_nodes(
    costs: Optional[CostModel] = None,
    tcp_checksums: bool = True,
    ip_input_mode: str = "interrupt",
) -> tuple[NectarSystem, NectarNode, NectarNode]:
    """A fresh two-CAB system through one HUB (the paper's measurement rig)."""
    system = NectarSystem(costs=costs)
    hub = system.add_hub("hub0")
    node_a = system.add_node(
        "cab-a", hub, 0, tcp_checksums=tcp_checksums, ip_input_mode=ip_input_mode
    )
    node_b = system.add_node(
        "cab-b", hub, 1, tcp_checksums=tcp_checksums, ip_input_mode=ip_input_mode
    )
    return system, node_a, node_b


def two_hosted_nodes(
    costs: Optional[CostModel] = None,
    tcp_checksums: bool = True,
) -> tuple[NectarSystem, HostedNode, HostedNode]:
    """Two Sun-4-class hosts, each with a CAB, through one HUB."""
    system, node_a, node_b = two_nodes(costs=costs, tcp_checksums=tcp_checksums)
    return system, HostedNode(system, node_a), HostedNode(system, node_b)

