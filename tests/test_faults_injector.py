"""Unit tests for the fault-injection subsystem itself.

Covers the declarative plan model (validation, windows, site matching),
the injector's firing schedules (nth-occurrence, every-nth, max-fires,
window bounds), and the determinism promise: the same plan drives
bit-identical fault schedules — and bit-identical whole-system traces —
across independent runs.
"""

import pytest

from repro.cluster.fleet import build_fleet_system, line_fleet
from repro.cluster.workload import Flow, Workload, WorkloadSpec
from repro.errors import ConfigurationError
from repro.faults.injector import Injector
from repro.faults.plan import (
    CORRUPT,
    CRASH,
    DROP,
    SQUEEZE,
    STALL,
    FaultPlan,
    FaultSpec,
    site_matches,
)
from repro.faults.catalogue import build, catalogue
from repro.system import NectarSystem
from repro.units import ms, seconds, us


class FakeFrame:
    """A minimal Frame stand-in for hook-level tests."""

    def __init__(self, size=64):
        self.payload = bytearray(size)
        self.drop = False
        self.corrupted_at = None

    @property
    def size(self):
        """Frame length in bytes (mirrors the real Frame API)."""
        return len(self.payload)

    def corrupt(self, index):
        """Record the flip position (mirrors Frame.corrupt)."""
        self.payload[index] ^= 0xFF
        self.corrupted_at = index


class TestFaultSpecValidation:
    """Constructor-level rejection of malformed specs."""

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultSpec(kind="meteor-strike")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError, match="probability"):
            FaultSpec(kind=DROP, probability=1.5)

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigurationError, match="window"):
            FaultSpec(kind=DROP, window_ns=(5, 5))

    def test_stall_requires_duration(self):
        with pytest.raises(ConfigurationError, match="stall_ns"):
            FaultSpec(kind=STALL)

    def test_squeeze_requires_bytes(self):
        with pytest.raises(ConfigurationError, match="squeeze_bytes"):
            FaultSpec(kind=SQUEEZE)

    def test_plan_rejects_non_spec_entries(self):
        with pytest.raises(ConfigurationError, match="FaultSpec"):
            FaultPlan(seed=1, specs=("drop",))

    def test_window_membership_is_half_open(self):
        spec = FaultSpec(kind=DROP, window_ns=(100, 200))
        assert not spec.in_window(99)
        assert spec.in_window(100)
        assert spec.in_window(199)
        assert not spec.in_window(200)

    def test_site_matching_rules(self):
        assert site_matches("*", "anything")
        assert site_matches("cab-b", "cab-b")
        assert site_matches("cab-b.fiber-in", "cab-b.fiber-in.fifo")
        assert site_matches("tcp-input", "cab-a:tcp-input")
        assert not site_matches("cab-a", "cab-b")


class TestFiringSchedules:
    """nth / every_nth / max_fires / window gating at the hook level."""

    def test_nth_occurrence_fires_exactly_once(self):
        plan = FaultPlan(seed=3, specs=(FaultSpec(kind=DROP, nth=4),))
        injector = Injector(plan)
        drops = []
        for index in range(10):
            frame = FakeFrame()
            injector.on_link_frame("cab-a", "cab-b", frame)
            drops.append(frame.drop)
        assert drops == [False, False, False, True] + [False] * 6
        assert injector.stats.value("fault_drop") == 1

    def test_every_nth_fires_periodically(self):
        plan = FaultPlan(seed=3, specs=(FaultSpec(kind=DROP, every_nth=3),))
        injector = Injector(plan)
        drops = []
        for _ in range(9):
            frame = FakeFrame()
            injector.on_link_frame("cab-a", "cab-b", frame)
            drops.append(frame.drop)
        assert drops == [False, False, True] * 3

    def test_max_fires_caps_total_firings(self):
        plan = FaultPlan(
            seed=3, specs=(FaultSpec(kind=DROP, every_nth=2, max_fires=2),)
        )
        injector = Injector(plan)
        dropped = 0
        for _ in range(20):
            frame = FakeFrame()
            injector.on_link_frame("cab-a", "cab-b", frame)
            dropped += frame.drop
        assert dropped == 2

    def test_window_bounds_gate_the_spec(self):
        plan = FaultPlan(
            seed=3,
            specs=(FaultSpec(kind=DROP, window_ns=(us(10), us(20))),),
        )
        injector = Injector(plan)
        clock = {"now": 0}
        injector.bind_clock(lambda: clock["now"])
        results = {}
        for now in (us(9), us(10), us(19), us(20)):
            clock["now"] = now
            frame = FakeFrame()
            injector.on_link_frame("cab-a", "cab-b", frame)
            results[now] = frame.drop
        assert results == {us(9): False, us(10): True, us(19): True, us(20): False}

    def test_site_filter_spares_other_links(self):
        plan = FaultPlan(seed=3, specs=(FaultSpec(kind=DROP, where="cab-a"),))
        injector = Injector(plan)
        hit, spared = FakeFrame(), FakeFrame()
        injector.on_link_frame("cab-a", "cab-b", hit)
        injector.on_link_frame("cab-b", "cab-a", spared)
        assert hit.drop and not spared.drop

    def test_crash_blackout_eats_both_directions(self):
        plan = FaultPlan(seed=3, specs=(FaultSpec(kind=CRASH, where="cab-b"),))
        injector = Injector(plan)
        outbound, inbound, bystander = FakeFrame(), FakeFrame(), FakeFrame()
        injector.on_link_frame("cab-a", "cab-b", outbound)
        injector.on_link_frame("cab-b", "cab-a", inbound)
        injector.on_link_frame("cab-a", "cab-c", bystander)
        assert outbound.drop and inbound.drop and not bystander.drop

    def test_corrupt_flips_a_seeded_byte(self):
        plan = FaultPlan(seed=3, specs=(FaultSpec(kind=CORRUPT, nth=1),))
        injector = Injector(plan)
        frame = FakeFrame()
        injector.on_link_frame("cab-a", "cab-b", frame)
        assert not frame.drop
        assert frame.corrupted_at is not None

    def test_stall_sums_matching_delays(self):
        plan = FaultPlan(
            seed=3,
            specs=(
                FaultSpec(kind=STALL, where="cab-a", stall_ns=us(5)),
                FaultSpec(kind=STALL, where="cab-a", stall_ns=us(7)),
            ),
        )
        injector = Injector(plan)
        assert injector.link_delay_ns("cab-a") == us(12)
        assert injector.link_delay_ns("cab-b") == 0


class TestDeterminism:
    """Fixed seed => bit-identical schedules and bit-identical runs."""

    def test_same_seed_same_decision_stream(self):
        plan = FaultPlan(seed=11, specs=(FaultSpec(kind=DROP, probability=0.3),))
        streams = []
        for _ in range(2):
            injector = Injector(plan)
            decisions = []
            for _ in range(200):
                frame = FakeFrame()
                injector.on_link_frame("cab-a", "cab-b", frame)
                decisions.append(frame.drop)
            streams.append(decisions)
        assert streams[0] == streams[1]
        assert any(streams[0]) and not all(streams[0])

    def test_different_seeds_differ(self):
        def stream(seed):
            injector = Injector(
                FaultPlan(seed=seed, specs=(FaultSpec(kind=DROP, probability=0.3),))
            )
            out = []
            for _ in range(200):
                frame = FakeFrame()
                injector.on_link_frame("cab-a", "cab-b", frame)
                out.append(frame.drop)
            return out

        assert stream(1) != stream(2)

    def test_spec_streams_are_independent(self):
        """Adding a spec must not perturb an existing spec's decisions."""

        def drop_stream(specs):
            injector = Injector(FaultPlan(seed=11, specs=specs))
            out = []
            for _ in range(100):
                frame = FakeFrame()
                injector.on_link_frame("cab-a", "cab-b", frame)
                out.append(frame.drop)
            return out

        alone = drop_stream((FaultSpec(kind=DROP, probability=0.3),))
        with_stall = drop_stream(
            (
                FaultSpec(kind=DROP, probability=0.3),
                FaultSpec(kind=STALL, where="nowhere", stall_ns=1),
            )
        )
        assert alone == with_stall

    def _faulty_rmp_signature(self, seed):
        """One faulty RMP run reduced to a full-fidelity signature."""
        system = NectarSystem()
        hub = system.add_hub("hub0")
        a = system.add_node("cab-a", hub, 0)
        b = system.add_node("cab-b", hub, 1)
        injector = system.attach_fault_plan(
            FaultPlan(
                seed=seed,
                specs=(
                    FaultSpec(kind=DROP, where="*", probability=0.15),
                    FaultSpec(kind=CORRUPT, where="*", probability=0.1),
                ),
            )
        )
        inbox = b.runtime.mailbox("rmp-inbox")
        chan = a.rmp.open(100, b.node_id, 200)
        b.rmp.open(200, a.node_id, 100, deliver_mailbox=inbox)
        payloads = [bytes([i]) * 256 for i in range(8)]
        done = system.sim.event()

        def sender():
            for payload in payloads:
                yield from a.rmp.send(chan, payload)

        def receiver():
            got = []
            for _ in payloads:
                msg = yield from inbox.begin_get()
                got.append(msg.read())
                yield from inbox.end_get(msg)
            done.succeed(got)

        a.runtime.fork_application(sender(), "sender")
        b.runtime.fork_application(receiver(), "receiver")
        got = system.run_until(done, limit=seconds(30))
        assert got == payloads
        return (
            system.now,
            tuple(injector.fired),
            tuple(sorted(a.runtime.stats.snapshot().items())),
            tuple(sorted(b.runtime.stats.snapshot().items())),
            tuple(sorted(a.cab.stats.snapshot().items())),
            tuple(sorted(b.cab.stats.snapshot().items())),
        )

    def test_same_seed_bit_identical_faulty_run(self):
        first = self._faulty_rmp_signature(21)
        second = self._faulty_rmp_signature(21)
        assert first == second
        assert first[1], "the plan should actually have fired faults"

    def test_scenario_library_builds_for_any_seed(self):
        for case in catalogue(99).values():
            assert case.plan.seed == 99
            assert case.plan.specs
        with pytest.raises(ConfigurationError, match="unknown fault case"):
            build("meteor-strike", 1)


class TestDirectedPairFaults:
    """A ``src->dst`` selector pins a fault to one CAB pair and direction."""

    def _run(self, where):
        fleet = line_fleet(1, 2, hub_ports=8)
        flows = (
            Flow(index=0, kind="rmp", src="cab-00-00", dst="cab-00-01",
                 messages=4, size=128),
            Flow(index=1, kind="rmp", src="cab-00-01", dst="cab-00-00",
                 messages=4, size=128),
        )
        system = build_fleet_system(fleet)
        injector = system.attach_fault_plan(
            FaultPlan(
                seed=7,
                specs=(
                    FaultSpec(
                        kind=DROP,
                        where=where,
                        probability=1.0,
                        window_ns=(0, us(800)),
                    ),
                ),
            )
        )
        workload = Workload(WorkloadSpec(seed=7, explicit_flows=flows), fleet)
        workload.install(system)
        system.run(until=ms(40))
        return injector

    def test_directed_pattern_pins_one_direction(self):
        injector = self._run("cab-00-00->cab-00-01")
        sites = {site for _t, _kind, site in injector.fired}
        assert sites == {"cab-00-00->cab-00-01"}

    def test_plain_pattern_matches_the_sender(self):
        injector = self._run("cab-00-00")
        sites = {site for _t, _kind, site in injector.fired}
        assert sites == {"cab-00-00"}

    def test_spec_site_matching(self):
        directed = FaultSpec(kind=DROP, where="cab-a->cab-b")
        assert directed.matches_site("cab-a->cab-b")
        assert not directed.matches_site("cab-b->cab-a")
        assert not directed.matches_site("cab-a")
