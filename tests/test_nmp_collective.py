"""Unit tests for the NMP reliable multicast and the CAB-resident collectives.

NMP's recovery machinery is exercised with surgically windowed fault specs
(a replica dropped on one fan-out branch, a frame dropped at source egress)
so each test pins one mechanism: NACK generation, repair multicast,
duplicate suppression at non-gap members, NACK suppression across members,
and the bounded SYNC retry budget.  The collective tests pin the binary
tree's shape and the barrier's all-entered-before-any-exit semantics.
"""

import pytest

from repro.cluster.conductor import run_reference
from repro.cluster.fleet import line_fleet
from repro.cluster.workload import WorkloadSpec
from repro.errors import ProtocolError
from repro.faults.plan import DROP, FaultPlan, FaultSpec
from repro.hub.groups import GROUP_BASE
from repro.protocols.headers import (
    DL_TYPE_NECTAR,
    NECTAR_KIND_DATA,
    NECTAR_KIND_NACK,
    NECTAR_PROTO_NMP,
    NectarTransportHeader,
)
from repro.protocols.nectar.collective import tree_depth
from repro.protocols.nectar.nmp import NMP_MAX_TRIES, NMP_RECV_WINDOW, NMP_REPAIR_WINDOW
from repro.runtime.mailbox import CACHED_BUFFER_BYTES
from repro.system import NectarSystem
from repro.units import seconds, us
from tests.test_leaks import heap_leaks

GID = GROUP_BASE + 1
PORT = 0x4100


def mcast_rig(n_members=3, plan=None):
    """One sender plus ``n_members`` group members on a single HUB."""
    system = NectarSystem()
    hub = system.add_hub("hub0")
    sender = system.add_node("cab-s", hub, 0)
    members = [
        system.add_node(f"cab-m{i}", hub, i + 1) for i in range(n_members)
    ]
    if plan is not None:
        system.attach_fault_plan(plan)
    system.network.groups.register(GID, tuple(node.name for node in members))
    return system, sender, members


def run_stream(system, sender, members, payloads, until=seconds(5)):
    """Multicast ``payloads`` and collect each member's arrivals in order."""
    session = sender.nmp.open_sender(
        GID, PORT, tuple(node.node_id for node in members)
    )
    received = {node.name: [] for node in members}
    errors = []

    def producer():
        try:
            for payload in payloads:
                yield from sender.nmp.send(session, payload)
            yield from sender.nmp.flush(session)
        except ProtocolError as exc:
            errors.append(str(exc))

    for rank, node in enumerate(members):
        inbox = node.runtime.mailbox(f"inbox-{node.name}")
        node.nmp.join(GID, PORT, rank, inbox)

        def collector(inbox=inbox, sink=received[node.name]):
            for _ in payloads:
                msg = yield from inbox.begin_get()
                sink.append(msg.read())
                yield from inbox.end_get(msg)

        node.runtime.fork_application(collector(), f"recv-{node.name}")
    sender.runtime.fork_application(producer(), "send")
    system.run(until=until)
    return received, errors


PAYLOADS = [bytes([0x30 + k]) * (48 * (k + 1)) for k in range(4)]


class TestNMPCleanPath:
    def test_every_member_sees_the_stream_in_order(self):
        system, sender, members = mcast_rig()
        received, errors = run_stream(system, sender, members, PAYLOADS)
        assert errors == []
        for node in members:
            assert received[node.name] == PAYLOADS
        assert sender.runtime.stats.value("nmp_data_out") == len(PAYLOADS)
        for node in members:
            assert node.runtime.stats.value("nmp_nacks_out") == 0
        assert system.copy_meter.live_buffers == 0

    def test_sender_port_collision_rejected(self):
        _system, sender, members = mcast_rig()
        ids = tuple(node.node_id for node in members)
        sender.nmp.open_sender(GID, PORT, ids)
        with pytest.raises(ProtocolError, match="already open"):
            sender.nmp.open_sender(GID, PORT, ids)

    def test_double_join_rejected(self):
        _system, _sender, members = mcast_rig()
        node = members[0]
        inbox = node.runtime.mailbox("inbox")
        node.nmp.join(GID, PORT, 0, inbox)
        with pytest.raises(ProtocolError, match="already joined"):
            node.nmp.join(GID, PORT, 0, inbox)


class TestNMPRepair:
    def test_dropped_branch_replica_is_nacked_and_repaired(self):
        """One member misses early frames: it NACKs once, the repair is
        multicast, and the members that never had a gap count duplicates."""
        plan = FaultPlan(
            seed=1,
            specs=(
                # The first DATA replicas cross the fan-out branch at
                # ~230-280us on this fabric; the repair multicast comes
                # later and must get through.
                FaultSpec(
                    kind=DROP,
                    where="cab-s->cab-m0",
                    probability=1.0,
                    window_ns=(0, us(300)),
                ),
            ),
        )
        system, sender, members = mcast_rig(plan=plan)
        received, errors = run_stream(system, sender, members, PAYLOADS)
        assert errors == []
        for node in members:
            assert received[node.name] == PAYLOADS
        gap_member = members[0]
        assert gap_member.runtime.stats.value("nmp_nacks_out") >= 1
        assert gap_member.runtime.stats.value("nmp_repairs_in") >= 1
        assert sender.runtime.stats.value("nmp_repairs_out") >= 1
        duplicates = sum(
            node.runtime.stats.value("nmp_duplicates") for node in members[1:]
        )
        assert duplicates >= 1
        assert system.copy_meter.live_buffers == 0

    def test_shared_loss_is_nacked_once_and_suppressed_elsewhere(self):
        """A frame dropped at source egress opens the same gap on every
        member; only the lowest-rank NACK timer fires, the repair cancels
        the rest (NORM-style suppression)."""
        plan = FaultPlan(
            seed=1,
            specs=(
                # Source egress puts DATA 0 on the wire at ~220us; closing
                # the window at 240us drops exactly that first frame for
                # every member at once.
                FaultSpec(
                    kind=DROP,
                    where="cab-s",
                    probability=1.0,
                    window_ns=(0, us(240)),
                ),
            ),
        )
        system, sender, members = mcast_rig(plan=plan)
        received, errors = run_stream(system, sender, members, PAYLOADS)
        assert errors == []
        for node in members:
            assert received[node.name] == PAYLOADS
        nacks = sum(
            node.runtime.stats.value("nmp_nacks_out") for node in members
        )
        suppressed = sum(
            node.runtime.stats.value("nmp_nacks_suppressed") for node in members
        )
        assert nacks == 1
        assert suppressed == len(members) - 1
        assert system.copy_meter.live_buffers == 0


class TestNMPFlush:
    def test_flush_gives_up_after_bounded_syncs(self):
        """Total blackout: the watermark flush must fail loudly after its
        documented retry budget, never hang.  Ten rounds backed off from the
        initial RTO take about 11 simulated seconds."""
        plan = FaultPlan(
            seed=1, specs=(FaultSpec(kind=DROP, where="*", probability=1.0),)
        )
        system, sender, members = mcast_rig(plan=plan)
        _received, errors = run_stream(
            system, sender, members, PAYLOADS, until=seconds(20)
        )
        assert len(errors) == 1
        assert f"after {NMP_MAX_TRIES} SYNCs" in errors[0]

    def test_flush_of_an_empty_stream_is_a_no_op(self):
        system, sender, members = mcast_rig()
        session = sender.nmp.open_sender(
            GID, PORT, tuple(node.node_id for node in members)
        )

        def producer():
            yield from sender.nmp.flush(session)

        sender.runtime.fork_application(producer(), "send")
        system.run(until=seconds(1))
        assert sender.runtime.stats.value("nmp_syncs_out") == 0


def send_crafted(system, src, header, payload=b""):
    """Put one hand-built NMP frame from ``src`` on the wire to the node or
    group that ``header.dst_node`` names, and run to quiescence."""
    header.src_node = src.node_id
    header.length = len(payload)

    def sender():
        yield from src.datalink.send_raw(header.dst_node, DL_TYPE_NECTAR, header.pack() + payload)

    src.runtime.fork_application(sender(), "crafted")
    system.run()


class TestNMPBoundedState:
    """The price of bounded state: what falls outside either window is
    counted once, freed and otherwise ignored."""

    def test_nack_for_an_evicted_sequence_is_a_repair_miss(self):
        system, sender, members = mcast_rig(n_members=1)
        session = sender.nmp.open_sender(GID, PORT, (members[0].node_id,))

        def producer():
            # One more than the window: sequence 0 is evicted.
            for k in range(NMP_REPAIR_WINDOW + 1):
                yield from sender.nmp.send(session, bytes([k]) * 8)

        sender.runtime.fork_application(producer(), "send")
        system.run()
        assert 0 not in session.window and 1 in session.window
        stats = sender.runtime.stats
        sent = sender.cab.stats.value("frames_sent")

        nack = NectarTransportHeader(
            protocol=NECTAR_PROTO_NMP,
            kind=NECTAR_KIND_NACK,
            seq=0,
            flags=1,
            dst_node=sender.node_id,
            dst_port=PORT,
        )
        send_crafted(system, members[0], nack)
        assert stats.value("nmp_nacks_in") == 1
        assert stats.value("nmp_repair_misses") == 1
        assert stats.value("nmp_repairs_out") == 0
        assert sender.cab.stats.value("frames_sent") == sent
        assert heap_leaks(system) == []

    def test_data_beyond_the_reorder_window_is_dropped(self):
        system, sender, members = mcast_rig(n_members=1)
        member = members[0]
        inbox = member.runtime.mailbox("inbox")
        member.nmp.join(GID, PORT, 0, inbox)
        system.run()
        stats = member.runtime.stats
        sent = member.cab.stats.value("frames_sent")

        data = NectarTransportHeader(
            protocol=NECTAR_PROTO_NMP,
            kind=NECTAR_KIND_DATA,
            seq=NMP_RECV_WINDOW,
            dst_node=GID,
            dst_port=PORT,
        )
        # Past the input mailbox's cached buffer, so the frame takes a heap block.
        send_crafted(system, sender, data, bytes(CACHED_BUFFER_BYTES))
        assert member.cab.stats.value("frames_received") == 1
        assert stats.value("nmp_out_of_window") == 1
        assert stats.value("nmp_data_in") == 0
        assert len(inbox) == 0
        assert member.cab.stats.value("frames_sent") == sent
        assert heap_leaks(system) == []


def collective_rig(n_members=7):
    """``n_members`` CABs on one HUB, each a member of the same group."""
    system = NectarSystem()
    hub = system.add_hub("hub0")
    nodes = [system.add_node(f"cab-{i}", hub, i) for i in range(n_members)]
    ids = tuple(node.node_id for node in nodes)
    groups = [
        node.coll.create(GID, PORT, ids, rank)
        for rank, node in enumerate(nodes)
    ]
    return system, nodes, groups


class TestCollectiveTree:
    def test_tree_depth_is_log2(self):
        assert tree_depth(1) == 0
        assert tree_depth(2) == 1
        assert tree_depth(7) == 2
        assert tree_depth(8) == 3
        assert tree_depth(64) == 6

    def test_parent_child_links_are_consistent(self):
        _system, nodes, groups = collective_rig(7)
        ids = [node.node_id for node in nodes]
        assert groups[0].parent is None
        for rank in range(1, 7):
            assert groups[rank].parent == ids[(rank - 1) // 2]
        for rank, group in enumerate(groups):
            for child_id in group.children:
                child_rank = ids.index(child_id)
                assert (child_rank - 1) // 2 == rank

    def test_bad_rank_rejected(self):
        _system, nodes, _groups = collective_rig(3)
        with pytest.raises(ProtocolError, match="out of range"):
            nodes[0].coll.create(GID, PORT + 1, (1, 2, 3), 3)


class TestBarrier:
    def test_rounds_complete_and_never_interleave(self):
        """No member may exit round k+1 before every member exited round k
        — the exit log, in simulated-time order, must be round-sorted."""
        rounds = 3
        system, nodes, groups = collective_rig(7)
        exits = []

        for node, group in zip(nodes, groups):

            def worker(node=node, group=group):
                for k in range(rounds):
                    yield from node.coll.barrier(group)
                    exits.append(k)

            node.runtime.fork_application(worker(), f"bar-{node.name}")
        system.run(until=seconds(5))
        assert exits == sorted(exits)
        assert len(exits) == rounds * len(nodes)
        for node in nodes:
            assert node.runtime.stats.value("coll_barriers") == rounds
        arrivals = sum(
            node.runtime.stats.value("coll_arrivals_out") for node in nodes
        )
        assert arrivals == (len(nodes) - 1) * rounds

    def test_two_member_barrier(self):
        system, nodes, groups = collective_rig(2)
        done = []

        for node, group in zip(nodes, groups):

            def worker(node=node, group=group):
                yield from node.coll.barrier(group)
                done.append(node.name)

            node.runtime.fork_application(worker(), f"bar-{node.name}")
        system.run(until=seconds(1))
        assert sorted(done) == ["cab-0", "cab-1"]

    @pytest.mark.parametrize("seed", [8, 11])
    def test_barrier_completes_under_the_fleet_mix(self, seed):
        """A 5-member barrier among the 64-CAB fleet's seeded flow mix.

        On these seeds a release landed while the root computed its
        condition wait, before its token was queued: the signal found an
        empty queue and five members never left the barrier.
        """
        mix = WorkloadSpec(
            seed=seed,
            rmp_flows=32,
            rpc_flows=24,
            tcp_flows=8,
            rmp_messages=25,
            rpc_calls=20,
            tcp_bytes=8192,
            mcast_flows=2,
            mcast_messages=20,
            barrier_flows=1,
        )
        result = run_reference(line_fleet(4, 16, 18), mix)
        barrier = [name for name in result.flows if name.startswith("barrier-")]
        assert len(barrier) == 5
        assert result.incomplete == []
