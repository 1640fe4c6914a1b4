"""The CAB-resident collective: a barrier run by the NIC.

In the style of NIC-based collective protocols (Quadrics/Myrinet), the
collective state machine lives on the CAB, not the host: ARRIVE and
RELEASE packets are consumed and forwarded *at interrupt time* by the
CAB's protocol engine, and the host thread only sees barrier enter/exit
(a condition wait).

The fan-in/fan-out tree is derived from the group's member order: member
``rank`` has parent ``(rank - 1) // 2`` and children ``2*rank + 1`` /
``2*rank + 2``, a binary tree of depth ``floor(log2 N)`` — so an N-member
barrier completes in O(log N) CAB-local rounds regardless of fleet size.

Barrier protocol, per epoch ``e``:

* A leaf that enters the barrier sends ARRIVE(e) to its parent.  An
  interior member forwards ARRIVE(e) up once its own thread has entered
  *and* both children's ARRIVEs are in — whichever event completes the
  set triggers the send, thread- or interrupt-side.
* The root, complete, multiplies RELEASE(e) down the tree; each member
  forwards RELEASE to its children at interrupt time and wakes its
  blocked host thread.  Epoch bookkeeping is bounded: at most two epochs
  can be live per group (no member can enter ``e+1`` before RELEASE(e)).

The barrier assumes a fault-free fabric.  One-to-many data goes over NMP
(:mod:`repro.protocols.nectar.nmp`), which also survives lossy links.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

from repro.errors import ProtocolError
from repro.protocols.headers import (
    NECTAR_KIND_ARRIVE,
    NECTAR_KIND_RELEASE,
    NECTAR_PROTO_COLL,
    NectarTransportHeader,
)
from repro.protocols.nectar.transport import NectarTransportLayer, PacketKind
from repro.runtime.kernel import Runtime

__all__ = ["CollectiveEngine", "CollectiveGroup", "tree_depth"]


def tree_depth(n_members: int) -> int:
    """Depth of the binary fan-in tree (the O(log N) round count)."""
    depth = 0
    rank = n_members - 1
    while rank > 0:
        rank = (rank - 1) // 2
        depth += 1
    return depth


class CollectiveGroup:
    """One CAB's membership in a collective group."""

    def __init__(
        self,
        engine: "CollectiveEngine",
        group_id: int,
        port: int,
        member_ids: Tuple[int, ...],
        rank: int,
    ):
        self.engine = engine
        self.group_id = group_id
        self.port = port
        self.member_ids = member_ids
        self.rank = rank
        self.parent = member_ids[(rank - 1) // 2] if rank > 0 else None
        self.children = tuple(
            member_ids[child]
            for child in (2 * rank + 1, 2 * rank + 2)
            if child < len(member_ids)
        )
        #: Barrier FSM state: local thread's epoch, child arrivals per
        #: epoch, highest epoch forwarded up, highest epoch released.
        self.local_epoch = 0
        self.arrivals: Dict[int, int] = {}
        self.ascended = 0
        self.release_epoch = 0
        self.mutex = engine.runtime.mutex(f"coll{port}-barrier")
        self.cond = engine.runtime.condition(f"coll{port}-release")

    @property
    def is_root(self) -> bool:
        return self.rank == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CollectiveGroup 0x{self.group_id:x} rank={self.rank}/"
            f"{len(self.member_ids)} epoch={self.release_epoch}>"
        )


class CollectiveEngine:
    """The CAB-resident collective protocol engine of one node."""

    def __init__(self, transport: NectarTransportLayer):
        self.transport = transport
        self.runtime: Runtime = transport.runtime
        self.costs = self.runtime.costs
        self.stats = self.runtime.stats
        #: Keyed by group port: collective packets arrive unicast, so the
        #: port is the demux key (one group per port per CAB).
        self._groups: Dict[int, CollectiveGroup] = {}

        def group(header: NectarTransportHeader) -> Optional[CollectiveGroup]:
            return self._groups.get(header.dst_port)

        kinds = {
            NECTAR_KIND_ARRIVE: PacketKind(group, "coll_no_group", self._recv_arrive, True),
            NECTAR_KIND_RELEASE: PacketKind(group, "coll_no_group", self._recv_release, True),
        }
        transport.register(NECTAR_PROTO_COLL, self.costs.nectar_coll_ns, "coll", kinds)

    def create(
        self, group_id: int, port: int, member_ids: Tuple[int, ...], rank: int
    ) -> CollectiveGroup:
        """Declare this CAB's membership (same order on every member)."""
        if port in self._groups:
            raise ProtocolError(
                f"collective group 0x{group_id:x} port {port} already exists"
            )
        if not 0 <= rank < len(member_ids):
            raise ProtocolError(
                f"rank {rank} out of range for {len(member_ids)} members"
            )
        group = CollectiveGroup(self, group_id, port, tuple(member_ids), rank)
        self._groups[port] = group
        return group

    # -- barrier (host thread sees only enter/exit) --------------------------------

    def barrier(self, group: CollectiveGroup) -> Generator:
        """Thread-context: enter the barrier, return when released."""
        ops = self.runtime.ops
        yield self.costs.nectar_coll_ns
        yield from ops.lock(group.mutex)
        epoch = group.local_epoch + 1
        group.local_epoch = epoch
        yield from ops.unlock(group.mutex)
        yield from self._try_complete(group, epoch)
        yield from ops.lock(group.mutex)
        while group.release_epoch < epoch:
            yield from ops.wait(group.cond, group.mutex)
        yield from ops.unlock(group.mutex)
        self.stats.add("coll_barriers")

    def _try_complete(self, group: CollectiveGroup, epoch: int) -> Generator:
        """Forward the fan-in once this member's arrival set for ``epoch``
        is complete.  Called from both the entering thread and the ARRIVE
        interrupt handler — whichever completes the set sends."""
        if (
            group.ascended >= epoch
            or group.local_epoch < epoch
            or group.arrivals.get(epoch, 0) < len(group.children)
        ):
            return
        group.ascended = epoch
        group.arrivals.pop(epoch, None)
        if group.is_root:
            yield from self._release(group, epoch)
        else:
            header = self._header(group, NECTAR_KIND_ARRIVE, epoch, group.parent)
            yield from self.transport.send_control(header)
            self.stats.add("coll_arrivals_out")

    def _release(self, group: CollectiveGroup, epoch: int) -> Generator:
        """Fan RELEASE(epoch) out to the children and wake the local thread."""
        group.release_epoch = max(group.release_epoch, epoch)
        for child in group.children:
            header = self._header(group, NECTAR_KIND_RELEASE, epoch, child)
            yield from self.transport.send_control(header)
            self.stats.add("coll_releases_out")
        self.runtime.ops.signal_nocost(group.cond)

    def _header(
        self, group: CollectiveGroup, kind: int, seq: int, dst_node: int
    ) -> NectarTransportHeader:
        return NectarTransportHeader(
            protocol=NECTAR_PROTO_COLL,
            kind=kind,
            seq=seq,
            flags=group.rank,
            src_port=group.port,
            dst_node=dst_node,
            dst_port=group.port,
        )

    # -- receiving (interrupt context) ----------------------------------------------

    def _recv_arrive(
        self, group: CollectiveGroup, _msg: None, header: NectarTransportHeader
    ) -> Generator:
        epoch = header.seq
        self.stats.add("coll_arrivals_in")
        group.arrivals[epoch] = group.arrivals.get(epoch, 0) + 1
        yield from self._try_complete(group, epoch)

    def _recv_release(
        self, group: CollectiveGroup, _msg: None, header: NectarTransportHeader
    ) -> Generator:
        self.stats.add("coll_releases_in")
        if header.seq > group.release_epoch:
            yield from self._release(group, header.seq)
