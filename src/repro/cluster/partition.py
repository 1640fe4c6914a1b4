"""Partitioning a fleet's wiring graph into shards at inter-HUB links.

The only legal cut is an inter-HUB fiber: a CAB and its HUB always land in
the same shard, so every FIFO interaction (the HUB's low-level flow
control) stays shard-local and only :class:`~repro.hub.network.Handoff`
records cross shard boundaries — with the 250 ns fiber propagation delay
as guaranteed lookahead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.cluster.fleet import FleetSpec
from repro.errors import ConfigurationError

__all__ = ["Partition", "Partitioner"]


@dataclass(frozen=True)
class Partition:
    """An assignment of every HUB (and its CABs) to a shard."""

    #: shard id -> tuple of hub names (spec construction order preserved).
    shards: tuple

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, hub_name: str) -> int:
        """The shard owning a hub."""
        for shard_id, hub_names in enumerate(self.shards):
            if hub_name in hub_names:
                return shard_id
        raise ConfigurationError(f"hub {hub_name!r} not in any shard")


class Partitioner:
    """Cuts a :class:`FleetSpec` into shards along inter-HUB links."""

    @staticmethod
    def partition(spec: FleetSpec, n_shards: int, strategy: str = "contiguous") -> Partition:
        """Assign hubs to ``n_shards`` shards.

        ``contiguous`` keeps runs of consecutively-constructed hubs together
        (fewest cuts on a line); ``round-robin`` deals hubs out in turn
        (best CAB balance on a star or fat tree).  Both are deterministic
        functions of the spec, and — because results are sharding-invariant
        — the choice only affects speed, never output.
        """
        if n_shards < 1:
            raise ConfigurationError(f"need at least 1 shard, got {n_shards}")
        if n_shards > len(spec.hubs):
            raise ConfigurationError(
                f"{n_shards} shards exceed the fleet's {len(spec.hubs)} hubs"
            )
        buckets = [[] for _ in range(n_shards)]
        if strategy == "round-robin":
            for index, hub_name in enumerate(spec.hubs):
                buckets[index % n_shards].append(hub_name)
        elif strategy == "contiguous":
            base, extra = divmod(len(spec.hubs), n_shards)
            cursor = 0
            for shard_id in range(n_shards):
                take = base + (1 if shard_id < extra else 0)
                buckets[shard_id] = list(spec.hubs[cursor : cursor + take])
                cursor += take
        else:
            raise ConfigurationError(
                f"unknown partition strategy {strategy!r} "
                f"(choose contiguous or round-robin)"
            )
        return Partition(shards=tuple(tuple(bucket) for bucket in buckets))

    @staticmethod
    def cut_links(spec: FleetSpec, partition: Partition) -> tuple:
        """The inter-HUB links severed by a partition (for reporting)."""
        return tuple(
            link
            for link in spec.links
            if partition.shard_of(link[0]) != partition.shard_of(link[2])
        )

    @staticmethod
    def shard_distances(
        spec: FleetSpec, partition: Partition, link_ns: int
    ) -> tuple:
        """All-pairs minimum cut-crossing cost between shards, in ns.

        ``D[a][b]`` lower-bounds how much simulated time any causal chain
        leaving shard ``a`` needs before it can *arrive* in shard ``b``:
        every path crosses at least ``hops(a, b)`` severed fibers, each
        costing at least one ``link_ns`` propagation delay (forwarding time
        inside intermediate shards only adds to that, so BFS hop count is a
        safe under-approximation).  This is the *asymmetric lookahead*
        matrix the conductor's per-shard horizons are built from: adjacent
        shards constrain each other by one propagation delay, distant
        shards by several.  ``D[a][a] == 0``; unreachable pairs (a severed
        fleet) are ``None`` — no constraint at all.
        """
        n = partition.n_shards
        adjacency = [set() for _ in range(n)]
        for hub_a, _pa, hub_b, _pb in spec.links:
            a, b = partition.shard_of(hub_a), partition.shard_of(hub_b)
            if a != b:
                adjacency[a].add(b)
                adjacency[b].add(a)
        rows = []
        for source in range(n):
            hops = {source: 0}
            frontier = deque([source])
            while frontier:
                here = frontier.popleft()
                for neighbor in sorted(adjacency[here]):
                    if neighbor not in hops:
                        hops[neighbor] = hops[here] + 1
                        frontier.append(neighbor)
            rows.append(
                tuple(
                    hops[dest] * link_ns if dest in hops else None
                    for dest in range(n)
                )
            )
        return tuple(rows)
