"""Declarative fleet topologies and shard-aware system construction.

A :class:`FleetSpec` is plain, picklable data: hub names, inter-HUB links,
and CAB placements, in a fixed construction order.  Every process — the
single-`Simulator` reference and each shard worker — builds its view of the
fleet from the same spec in the same order, which is what keeps node-id
assignment, route computation, and event tie-breaking identical everywhere.

A *shard build* constructs full protocol stacks only for the CABs whose HUB
belongs to the shard; every other CAB becomes a *ghost* (node id + topology
placement, no hardware), and the network's ``local_hubs`` /
``boundary_egress`` seam takes over at the cuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import ConfigurationError
from repro.model.costs import CostModel
from repro.system import NectarSystem

__all__ = [
    "FleetSpec",
    "build_fleet_system",
    "build_shard_system",
    "fat_tree_fleet",
    "line_fleet",
    "star_fleet",
]


@dataclass(frozen=True)
class FleetSpec:
    """A whole fleet's wiring as data: hubs, inter-HUB links, CABs."""

    #: Hub names, in construction order.
    hubs: tuple
    #: (hub_a, port_a, hub_b, port_b) inter-HUB fiber pairs, in order.
    links: tuple
    #: (cab_name, hub_name, port) placements, in construction order.
    cabs: tuple
    #: Crossbar size used for every hub.
    hub_ports: int = 16

    def cab_names(self) -> tuple:
        """All CAB names in construction order."""
        return tuple(name for name, _hub, _port in self.cabs)

    def cabs_on(self, hub_names: Iterable[str]) -> tuple:
        """CAB names placed on the given hubs, in construction order."""
        wanted = frozenset(hub_names)
        return tuple(
            name for name, hub, _port in self.cabs if hub in wanted
        )


# ------------------------------------------------------------------ generators


def line_fleet(n_hubs: int, cabs_per_hub: int, hub_ports: int = 16) -> FleetSpec:
    """HUBs in a line; hop count between end CABs grows with ``n_hubs``."""
    if n_hubs < 1:
        raise ConfigurationError(f"need at least 1 hub, got {n_hubs}")
    # Interior hubs give up two ports to the line's fibers.
    if cabs_per_hub > hub_ports - 2:
        raise ConfigurationError(
            f"{cabs_per_hub} CABs per hub does not fit {hub_ports}-port hubs "
            f"in a line (2 ports reserved for inter-hub fibers)"
        )
    hubs = tuple(f"hub{i:02d}" for i in range(n_hubs))
    links = tuple(
        (hubs[i], hub_ports - 1, hubs[i + 1], hub_ports - 2)
        for i in range(n_hubs - 1)
    )
    cabs = tuple(
        (f"cab-{i:02d}-{j:02d}", hubs[i], j)
        for i in range(n_hubs)
        for j in range(cabs_per_hub)
    )
    return FleetSpec(hubs=hubs, links=links, cabs=cabs, hub_ports=hub_ports)


def star_fleet(n_leaves: int, cabs_per_hub: int, hub_ports: int = 16) -> FleetSpec:
    """One center HUB with ``n_leaves`` leaf HUBs; CABs on the leaves."""
    if n_leaves < 1:
        raise ConfigurationError(f"need at least 1 leaf, got {n_leaves}")
    if n_leaves > hub_ports:
        raise ConfigurationError(
            f"{n_leaves} leaves exceed the center hub's {hub_ports} ports"
        )
    if cabs_per_hub > hub_ports - 1:
        raise ConfigurationError(
            f"{cabs_per_hub} CABs per leaf does not fit {hub_ports}-port hubs "
            f"(1 port reserved for the uplink)"
        )
    center = "hub00"
    leaves = tuple(f"hub{i + 1:02d}" for i in range(n_leaves))
    links = tuple(
        (center, i, leaves[i], hub_ports - 1) for i in range(n_leaves)
    )
    cabs = tuple(
        (f"cab-{i + 1:02d}-{j:02d}", leaves[i], j)
        for i in range(n_leaves)
        for j in range(cabs_per_hub)
    )
    return FleetSpec(
        hubs=(center,) + leaves, links=links, cabs=cabs, hub_ports=hub_ports
    )


def fat_tree_fleet(
    n_spines: int, n_leaves: int, cabs_per_hub: int, hub_ports: int = 16
) -> FleetSpec:
    """Two-level fat tree: every leaf HUB links to every spine HUB."""
    if n_spines < 1 or n_leaves < 1:
        raise ConfigurationError(
            f"need at least 1 spine and 1 leaf, got {n_spines}/{n_leaves}"
        )
    if n_leaves > hub_ports:
        raise ConfigurationError(
            f"{n_leaves} leaves exceed the spine hubs' {hub_ports} ports"
        )
    if cabs_per_hub + n_spines > hub_ports:
        raise ConfigurationError(
            f"{cabs_per_hub} CABs + {n_spines} uplinks do not fit "
            f"{hub_ports}-port leaf hubs"
        )
    spines = tuple(f"spine{s:02d}" for s in range(n_spines))
    leaves = tuple(f"leaf{l:02d}" for l in range(n_leaves))
    links = tuple(
        (spines[s], l, leaves[l], hub_ports - 1 - s)
        for s in range(n_spines)
        for l in range(n_leaves)
    )
    cabs = tuple(
        (f"cab-{l:02d}-{j:02d}", leaves[l], j)
        for l in range(n_leaves)
        for j in range(cabs_per_hub)
    )
    return FleetSpec(
        hubs=spines + leaves, links=links, cabs=cabs, hub_ports=hub_ports
    )


_GENERATORS = {
    "line": line_fleet,
    "star": star_fleet,
    "fat-tree": fat_tree_fleet,
}


def make_fleet(shape: str, hubs: int, cabs_per_hub: int, hub_ports: int = 16) -> FleetSpec:
    """Build a spec by shape name (the CLI entry point).

    ``hubs`` is the total hub budget: a star uses one hub as the center; a
    fat tree splits off one spine per four leaves (minimum one).
    """
    if shape == "line":
        return line_fleet(hubs, cabs_per_hub, hub_ports)
    if shape == "star":
        if hubs < 2:
            raise ConfigurationError("a star needs at least 2 hubs")
        return star_fleet(hubs - 1, cabs_per_hub, hub_ports)
    if shape == "fat-tree":
        if hubs < 2:
            raise ConfigurationError("a fat tree needs at least 2 hubs")
        n_spines = max(1, hubs // 5)
        return fat_tree_fleet(n_spines, hubs - n_spines, cabs_per_hub, hub_ports)
    raise ConfigurationError(
        f"unknown fleet shape {shape!r}; choose from {', '.join(sorted(_GENERATORS))}"
    )


# ------------------------------------------------------------------ builders


def _build(
    spec: FleetSpec,
    local_hub_names,
    costs: Optional[CostModel],
    active_cabs=None,
) -> NectarSystem:
    system = NectarSystem(costs=costs)
    hubs = {}
    for hub_name in spec.hubs:
        hubs[hub_name] = system.add_hub(hub_name, ports=spec.hub_ports)
    for hub_a, port_a, hub_b, port_b in spec.links:
        system.connect_hubs(hubs[hub_a], port_a, hubs[hub_b], port_b)
    for cab_name, hub_name, port in spec.cabs:
        local = local_hub_names is None or hub_name in local_hub_names
        if local and (active_cabs is None or cab_name in active_cabs):
            system.add_node(cab_name, hubs[hub_name], port)
        else:
            system.add_remote_node(cab_name, hubs[hub_name], port)
    return system


def build_fleet_system(
    spec: FleetSpec, costs: Optional[CostModel] = None
) -> NectarSystem:
    """The single-process reference: every CAB gets a full stack."""
    return _build(spec, None, costs)


def build_shard_system(
    spec: FleetSpec,
    local_hub_names: Iterable[str],
    costs: Optional[CostModel] = None,
    active_cabs: Optional[Iterable[str]] = None,
) -> NectarSystem:
    """One shard's view: full stacks on its hubs, ghosts elsewhere.

    ``active_cabs``, when given, narrows stack construction further: a CAB
    on a local hub that is *not* in the set is built as a ghost too.  The
    cluster runner passes the workload's flow endpoints here — a CAB no
    flow touches boots a stack that then sits idle, so eliding it changes
    no observable protocol result (its retransmit counters are synthesized
    as zero, which is provably what the reference reports for it).

    The caller still has to install ``network.boundary_egress`` before
    traffic crosses a cut.
    """
    local = frozenset(local_hub_names)
    unknown = sorted(local - set(spec.hubs))
    if unknown:
        raise ConfigurationError(f"shard names unknown hubs: {unknown}")
    system = _build(spec, local, costs, active_cabs=active_cabs)
    system.network.local_hubs = local
    return system
