"""The one retransmission timer: its arithmetic, and the fault-free rule.

:class:`~repro.protocols.rto.RetransmitTimer` is the RFC 6298 estimator
TCP, RMP, request-response and NMP share.  The unit tests pin its
arithmetic and Karn's rule at an RMP channel.  The fleet tests pin what
the shared timer is for: a fabric without a fault plan loses no frame, so
no transport may retransmit, retry, NACK or repair — not even the 64-CAB
fleet mix with 128 KB TCP flows, whose queueing once made fixed 2 ms
timers retransmit thousands of times and give up on some seeds.
"""

import pytest

from repro.bench import ablations, fig6, fig7, fig8, harness, microcosts, table1
from repro.cluster.conductor import Conductor, run_reference
from repro.cluster.fleet import line_fleet
from repro.cluster.workload import WorkloadSpec, recovery_counters
from repro.faults.plan import DROP, FaultPlan, FaultSpec
from repro.protocols.rto import MAX_RTO_NS, MIN_RTO_NS, RetransmitTimer
from repro.system import NectarSystem
from repro.units import ms, seconds, us


class TestRetransmitTimer:
    def test_floor_before_the_first_sample(self):
        timer = RetransmitTimer()
        assert timer.srtt_ns is None
        assert timer.rto_ns == MIN_RTO_NS

    def test_first_sample_sets_srtt_and_half_variance(self):
        timer = RetransmitTimer()
        timer.sample(ms(40))
        assert timer.srtt_ns == ms(40)
        assert timer.rttvar_ns == ms(20)
        assert timer.rto_ns == ms(40) + 4 * ms(20)

    def test_later_samples_smooth_by_an_eighth_and_a_quarter(self):
        timer = RetransmitTimer()
        timer.sample(ms(40))
        timer.sample(ms(48))
        assert timer.srtt_ns == ms(41)
        assert timer.rttvar_ns == ms(17)

    def test_rto_is_clamped_to_the_bounds(self):
        timer = RetransmitTimer()
        timer.sample(us(300))
        assert timer.rto_ns == MIN_RTO_NS
        timer.sample(seconds(5))
        assert timer.rto_ns == MAX_RTO_NS

    def test_backoff_doubles_up_to_the_cap(self):
        timer = RetransmitTimer()
        timer.backoff()
        assert timer.rto_ns == 2 * MIN_RTO_NS
        for _ in range(10):
            timer.backoff()
        assert timer.rto_ns == MAX_RTO_NS


def _rmp_rig(plan=None):
    system = NectarSystem()
    hub = system.add_hub("hub0")
    a = system.add_node("cab-a", hub, 0)
    b = system.add_node("cab-b", hub, 1)
    if plan is not None:
        system.attach_fault_plan(plan)
    inbox = b.runtime.mailbox("inbox")
    chan = a.rmp.open(100, b.node_id, 200)
    b.rmp.open(200, a.node_id, 100, deliver_mailbox=inbox)
    return system, a, chan


class TestRMPTimer:
    def test_first_try_acks_are_samples(self):
        system, a, chan = _rmp_rig()

        def sender():
            for _ in range(3):
                yield from a.rmp.send(chan, b"x" * 64)

        a.runtime.fork_application(sender(), "sender")
        system.run()
        assert chan.rtt.srtt_ns is not None
        assert 0 < chan.rtt.srtt_ns < ms(1)
        assert chan.rtt.rto_ns == MIN_RTO_NS
        assert a.runtime.stats.value("rmp_retransmits") == 0

    def test_karn_a_retransmitted_message_is_no_sample(self):
        """The first data frame is dropped: the channel backs off and its
        second try is answered, but that answer is not a round trip."""
        plan = FaultPlan(seed=1, specs=(FaultSpec(kind=DROP, where="cab-a", nth=1),))
        system, a, chan = _rmp_rig(plan)
        acked = []

        def sender():
            yield from a.rmp.send(chan, b"lost once")
            acked.append(system.now)

        a.runtime.fork_application(sender(), "sender")
        system.run()
        assert acked and acked[0] >= MIN_RTO_NS
        assert a.runtime.stats.value("rmp_retransmits") == 1
        assert chan.rtt.srtt_ns is None
        assert chan.rtt.rto_ns == 2 * MIN_RTO_NS


def _fleet_mix(seed):
    """The 64-CAB fleet mix with 128 KB TCP flows and a 5-member barrier."""
    return WorkloadSpec(
        seed=seed,
        rmp_flows=32,
        rpc_flows=24,
        tcp_flows=8,
        rmp_messages=25,
        rpc_calls=20,
        tcp_bytes=131072,
        mcast_flows=2,
        mcast_messages=20,
        barrier_flows=1,
    )


@pytest.mark.parametrize("sharded", [False, True], ids=["reference", "sharded"])
@pytest.mark.parametrize("seed", [15, 17])
def test_fault_free_fleet_mix_never_recovers(seed, sharded):
    """Seed 15 gave up an NMP flush and seed 17 an RPC under the fixed
    timers.  Now every flow completes and no timer fires, in one
    simulator and in two shards alike."""
    fleet = line_fleet(4, 16, 18)
    if sharded:
        result = Conductor(fleet, _fleet_mix(seed), n_workers=2).run()
    else:
        result = run_reference(fleet, _fleet_mix(seed))
    assert result.incomplete == []
    assert result.recoveries == 0, result.retransmits


@pytest.mark.parametrize(
    "driver",
    [table1, fig6, fig7, fig8, microcosts, ablations],
    ids=lambda module: module.__name__.rpartition(".")[2],
)
def test_paper_drivers_never_recover(driver, monkeypatch):
    """Every system a paper table or figure builds ends with every recovery
    counter of every node at zero."""
    built = []

    class Recorded(NectarSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(harness, "NectarSystem", Recorded)
    driver.scenario()
    assert built
    moved = {
        f"{node.name}.{name}": value
        for system in built
        for node in system.nodes.values()
        for name, value in recovery_counters(node.runtime.stats).items()
        if value
    }
    assert moved == {}
