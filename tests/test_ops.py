"""The ops lab: incidents, the observer plane, and the evaluators.

The expensive end-to-end checks share one full lab run (module-scoped
fixture); everything the ISSUE's acceptance list demands is asserted
from it — every incident detected and scored, ground truth verified,
double-run determinism, and the observer's zero-perturbation guarantee
(behavior with the flight recorder attached is bit-identical to the
behavior without it).  The detector/localizer rules are additionally
unit-tested against hand-built journals so their thresholds can't drift
silently.
"""

import json

import pytest

from repro.cluster.fleet import build_fleet_system, line_fleet
from repro.cluster.workload import Flow, Workload, WorkloadSpec
from repro.errors import ConfigurationError, RouteError
from repro.faults.plan import DROP, STALL, FaultPlan, FaultSpec
from repro.hub.crossbar import Hub
from repro.hub.routing import Topology
from repro.faults.catalogue import behavior_signature, build, incidents, run_case
from repro.ops import Journal, run_incident
from repro.ops import detect, lab, observer
from repro.sim.core import Simulator
from repro.sim.trace import TraceEvent
from repro.units import ms, us

SEED = 7

EXPECTED_INCIDENTS = [
    "fifo-cascade",
    "flapping-cab",
    "lossy-fiber",
    "rmp-fanout-loss",
    "slow-cab",
    "zombie-tcp",
]


@pytest.fixture(scope="module")
def results():
    """One scored run of every incident, shared by the end-to-end tests."""
    return {name: run_incident(build(name, SEED)) for name in EXPECTED_INCIDENTS}


# ---------------------------------------------------------------- registry


class TestRegistry:
    def test_six_incidents_registered(self):
        """The incidents are the catalogue's cases with ground truth."""
        assert sorted(incidents(SEED)) == EXPECTED_INCIDENTS

    def test_unknown_incident_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            build("no-such-incident", SEED)

    @pytest.mark.parametrize("name", EXPECTED_INCIDENTS)
    def test_incidents_are_fully_specified(self, name):
        incident = build(name, SEED)
        assert incident.name == name
        assert incident.summary
        assert incident.plan.specs
        assert incident.flows
        assert incident.truth.sites and incident.truth.blast_radius
        assert 0 < incident.truth.onset_ns < incident.horizon_ns
        assert incident.cadence_ns < incident.horizon_ns
        flow_names = {
            f"{flow.kind}-{flow.index:02d}"
            for flow in incident.flows
        }
        assert set(incident.truth.blast_radius) <= flow_names

    def test_builders_are_deterministic_in_the_seed(self):
        for name in EXPECTED_INCIDENTS:
            assert build(name, SEED) == build(name, SEED)


# ------------------------------------------------------------- end to end


class TestLabEndToEnd:
    @pytest.mark.parametrize("name", EXPECTED_INCIDENTS)
    def test_incident_passes_and_scores(self, results, name):
        result = results[name]
        assert result.deterministic, "double run diverged"
        assert result.detected, "no alert at or after onset"
        assert result.truth_ok, result.truth_notes
        assert result.mitigation_ok, result.mitigation_note
        assert result.shard_parity is not False
        assert result.passed
        assert result.score > 0

    @pytest.mark.parametrize("name", EXPECTED_INCIDENTS)
    def test_localization_names_a_true_site(self, results, name):
        result = results[name]
        truth = result.incident.truth.sites
        assert any(site in truth for site in result.candidates[:3]), (
            f"no true site in top-3: {result.candidates[:3]} vs {truth}"
        )

    def test_slow_cab_claims_shard_parity(self, results):
        assert results["slow-cab"].shard_parity is True

    @pytest.mark.parametrize("name", EXPECTED_INCIDENTS)
    def test_report_text_is_self_contained(self, results, name):
        text = results[name].render()
        assert f"incident: {name} (seed {SEED})" in text
        assert "score: " in text
        assert "mitigation: VERIFIED" in text

    @pytest.mark.parametrize("name", EXPECTED_INCIDENTS)
    def test_journal_is_canonical_json(self, results, name):
        journal = results[name].journal
        text = journal.render()
        decoded = json.loads(text)
        assert text == json.dumps(
            decoded, sort_keys=True, separators=(",", ":")
        )
        assert decoded["meta"]["incident"] == name
        assert len(decoded["samples"]) == journal.n_samples

    @pytest.mark.parametrize("name", EXPECTED_INCIDENTS)
    def test_journal_hides_injector_bookkeeping(self, results, name):
        """Operator visibility: no fault.* scope, no runtime fault_* stats."""
        journal = results[name].journal
        for sample in journal.samples:
            for series in sample["metrics"]:
                assert not series.startswith("fault."), series
                stat = series.split(".", 1)[1] if "." in series else series
                assert not stat.startswith("fault_"), series

    @pytest.mark.parametrize("name", EXPECTED_INCIDENTS)
    def test_samples_sit_on_the_cadence_grid(self, results, name):
        result = results[name]
        incident = result.incident
        journal = result.journal
        expected = incident.horizon_ns // incident.cadence_ns + 1
        assert journal.n_samples == expected
        for index in range(journal.n_samples):
            assert journal.time(index) == index * incident.cadence_ns


class TestObserverInvariance:
    @pytest.mark.parametrize("name", EXPECTED_INCIDENTS)
    def test_observer_does_not_perturb_the_simulation(self, name):
        """The acceptance invariant: observer on/off is bit-identical."""
        incident = build(name, SEED)
        _journal, observed = lab._observed_run(incident)
        assert lab.baseline_signature(incident) == behavior_signature(observed)


class TestDetectorAudit:
    """Why the detectors stay (docs/observability.md, "The detector
    audit"): for these incidents a diff of the faulted run's counters
    against the clean run's does not point at the faulty site, and the
    journal-fed detectors and localizer do (top-1 HIT in OPS_baseline.txt)."""

    @staticmethod
    def moved_counters(name):
        """Counter series (minus ``fault.*``) that the plan moves, old -> new."""
        incident = build(name, SEED)

        def counters(plan):
            return run_case(incident, plan=plan).system.metrics.counters()

        clean = counters(FaultPlan(seed=SEED, specs=()))
        faulted = counters(incident.plan)
        return {
            series: (clean.get(series, 0), faulted.get(series, 0))
            for series in sorted(set(clean) | set(faulted))
            if not series.startswith("fault.")
            and clean.get(series, 0) != faulted.get(series, 0)
        }

    def test_a_squeezed_fifo_moves_no_counter(self, results):
        assert self.moved_counters("fifo-cascade") == {}
        assert results["fifo-cascade"].candidates[0] == "cab-00-01.fiber-in"

    def test_a_straggler_moves_its_own_counters_least(self, results):
        moved = self.moved_counters("slow-cab")
        switches = {
            series.split(".")[0]: new - old
            for series, (old, new) in moved.items()
            if series.endswith(".cpu.context_switches")
        }
        assert set(moved) == {"net.frames_stalled"} | {
            f"{cab}.cpu.context_switches" for cab in switches
        }
        # The only other mover carries no site at all.
        assert moved["net.frames_stalled"][0] == 0
        # The victim's own counter moves least of all the CABs'.
        (victim,) = build("slow-cab", SEED).truth.sites
        assert min(switches, key=lambda cab: abs(switches[cab])) == victim
        assert len(switches) > 1
        assert results["slow-cab"].candidates[0] == victim


# ----------------------------------------------------------------- journal


def _journal(cabs, samples, *, capacity=8192, cadence=us(250), links=()):
    meta = {
        "incident": "synthetic",
        "seed": 0,
        "cadence_ns": cadence,
        "horizon_ns": cadence * (len(samples) - 1),
        "topology": {
            "cabs": dict(cabs),
            "links": sorted(links),
            "fifo_capacity": capacity,
        },
    }
    rows = [
        {"time_ns": index * cadence, "metrics": dict(metrics)}
        for index, metrics in enumerate(samples)
    ]
    return Journal(meta=meta, samples=rows, events=[])


class TestJournal:
    def test_absent_series_reads_as_zero(self):
        journal = _journal({"cab-a": "hub00"}, [{}, {"cab-a.hw.frames_sent": 3}])
        assert journal.value("cab-a.hw.frames_sent", 0) == 0
        assert journal.value("cab-a.hw.frames_sent", 1) == 3
        assert journal.delta("cab-a.hw.frames_sent", 1) == 3
        assert journal.value("never-sampled", 1) == 0

    def test_topology_queries(self):
        journal = _journal(
            {"cab-a": "hub00", "cab-b": "hub01"},
            [{}],
            links=("hub00<->hub01",),
        )
        assert journal.cabs() == ["cab-a", "cab-b"]
        assert journal.hub_of("cab-b") == "hub01"
        assert journal.links() == ["hub00<->hub01"]
        assert journal.fifo_capacity == 8192

    def test_render_is_byte_stable_and_hashable(self):
        journal = _journal({"cab-a": "hub00"}, [{"x": 1}])
        assert journal.render() == journal.render()
        assert journal.sha256() == journal.sha256()
        assert len(journal.sha256()) == 64


class TestSlowSpans:
    def test_matches_nested_spans_per_track(self):
        events = [
            TraceEvent(0, "cpu", "outer", phase="B", track="t1"),
            TraceEvent(100, "cpu", "inner", phase="B", track="t1"),
            TraceEvent(150, "cpu", "inner", phase="E", track="t1"),
            TraceEvent(us(300), "cpu", "outer", phase="E", track="t1"),
        ]
        slow, dropped = observer._slow_spans(events, slow_ns=us(200))
        assert dropped == 0
        assert [span["label"] for span in slow] == ["outer"]
        assert slow[0]["duration_ns"] == us(300)

    def test_caps_the_event_log_and_counts_drops(self):
        events = []
        for index in range(5):
            events.append(TraceEvent(index * us(300), "c", "s", phase="B", track="t"))
            events.append(
                TraceEvent(index * us(300) + us(250), "c", "s", phase="E", track="t")
            )
        slow, dropped = observer._slow_spans(events, slow_ns=us(200), cap=3)
        assert len(slow) == 3
        assert dropped == 2

    def test_ignores_unbalanced_and_still_open_spans(self):
        events = [
            TraceEvent(0, "c", "dangling-end", phase="E", track="t"),
            TraceEvent(10, "c", "never-closed", phase="B", track="t"),
        ]
        slow, dropped = observer._slow_spans(events, slow_ns=1)
        assert slow == [] and dropped == 0


# --------------------------------------------------------------- detectors


class TestDetectors:
    def test_error_delta_raises_a_threshold_alert(self):
        journal = _journal(
            {"cab-a": "hub00"},
            [{}, {}, {"cab-a.hw.crc_errors": 2}],
        )
        alerts = detect.run_detectors(journal)
        assert [(a.detector, a.signal, a.value) for a in alerts] == [
            ("threshold", "errors", 2)
        ]
        assert alerts[0].time_ns == journal.time(2)

    def test_congestion_alert_at_three_quarters_committed(self):
        below = {"cab-a.fifo.fiber-in.committed": 6143}
        at = {"cab-a.fifo.fiber-in.committed": 6144}  # 3/4 of 8192
        journal = _journal({"cab-a": "hub00"}, [{}, below, at])
        alerts = detect.run_detectors(journal)
        assert len(alerts) == 1
        assert alerts[0].signal == "congestion:cab-a.fiber-in"
        assert alerts[0].time_ns == journal.time(2)

    def test_rate_rule_needs_history_and_a_storm(self):
        def sample(total):
            return {"cab-a.rmp_retransmits": total}

        # Deltas: 1, 1, 8 — the spike is 8x the mean of the history.
        journal = _journal(
            {"cab-a": "hub00"}, [{}, sample(1), sample(2), sample(10)]
        )
        alerts = detect.run_detectors(journal)
        assert [(a.detector, a.signal) for a in alerts] == [("rate", "retransmits")]
        # The same spike without two prior intervals stays silent.
        early = _journal({"cab-a": "hub00"}, [{}, sample(1), sample(9)])
        assert detect.run_detectors(early) == []

    def test_steady_retransmits_do_not_alert(self):
        samples = [{"cab-a.rmp_retransmits": 5 * i} for i in range(6)]
        journal = _journal({"cab-a": "hub00"}, samples)
        assert detect.run_detectors(journal) == []


class TestLocalize:
    def test_no_alerts_means_no_candidates(self):
        journal = _journal({"cab-a": "hub00"}, [{}, {}])
        assert detect.localize(journal, []) == []

    def test_silent_cab_ranks_first(self):
        # cab-b received frames before the alerts, then goes quiet while
        # cab-a keeps receiving; cab-a's retransmits caused the alerts.
        def sample(a_recv, b_recv, a_retrans):
            return {
                "cab-a.hw.frames_received": a_recv,
                "cab-b.hw.frames_received": b_recv,
                "cab-a.rmp_retransmits": a_retrans,
            }

        journal = _journal(
            {"cab-a": "hub00", "cab-b": "hub00"},
            [
                sample(2, 2, 0),
                sample(4, 5, 0),
                sample(6, 5, 4),
                sample(8, 5, 9),
                sample(10, 5, 14),
            ],
        )
        alerts = [
            detect.Alert(journal.time(i), "rate", "retransmits", 5)
            for i in (2, 3, 4)
        ]
        candidates = detect.localize(journal, alerts)
        assert candidates[0] == "cab-b"
        assert "cab-a" in candidates  # the retransmitting victim, ranked after

    def test_errors_on_both_hubs_indict_the_link(self):
        def sample(a_err, b_err):
            return {
                "cab-a.hw.crc_errors": a_err,
                "cab-b.hw.crc_errors": b_err,
                "cab-a.hw.frames_received": 1,
                "cab-b.hw.frames_received": 1,
            }

        journal = _journal(
            {"cab-a": "hub00", "cab-b": "hub01"},
            [sample(0, 0), sample(2, 1), sample(4, 2)],
            links=("hub00<->hub01",),
        )
        alerts = [
            detect.Alert(journal.time(i), "threshold", "errors", 3) for i in (1, 2)
        ]
        candidates = detect.localize(journal, alerts)
        assert candidates[0] == "hub00<->hub01"
        assert candidates[1] == "cab-a"  # worst erroring CAB next

    def test_congested_fifo_site_precedes_its_cab(self):
        journal = _journal(
            {"cab-a": "hub00"},
            [{}, {"cab-a.fifo.fiber-in.committed": 8000}],
        )
        alerts = [
            detect.Alert(
                journal.time(1), "threshold", "congestion:cab-a.fiber-in", 8000
            )
        ]
        candidates = detect.localize(journal, alerts)
        assert candidates[:2] == ["cab-a.fiber-in", "cab-a"]

    def test_straggler_found_by_rate_collapse(self):
        # cab-a sent 10/interval before the alert, then nearly stops while
        # cab-b stays healthy.  net.frames_stalled drives the alerts.
        def sample(a_sent, b_sent, stalled):
            return {
                "cab-a.hw.frames_sent": a_sent,
                "cab-b.hw.frames_sent": b_sent,
                "net.frames_stalled": stalled,
            }

        journal = _journal(
            {"cab-a": "hub00", "cab-b": "hub00"},
            [
                sample(0, 0, 0),
                sample(10, 10, 0),
                sample(11, 20, 3),
                sample(12, 30, 6),
            ],
        )
        alerts = [
            detect.Alert(journal.time(i), "threshold", "stalls", 3) for i in (2, 3)
        ]
        assert detect.localize(journal, alerts) == ["cab-a"]


# -------------------------------------------------------------- mitigation


class TestClipPlan:
    def test_windows_clip_and_late_specs_vanish(self):
        plan = FaultPlan(
            seed=1,
            specs=(
                FaultSpec(kind=DROP, where="a", window_ns=(ms(1), ms(9))),
                FaultSpec(kind=DROP, where="b", window_ns=(ms(5), ms(9))),
                FaultSpec(kind=DROP, where="c", window_ns=(ms(1), ms(3))),
            ),
        )
        clipped = lab._clip_plan(plan, ms(4))
        assert [spec.where for spec in clipped.specs] == ["a", "c"]
        assert clipped.specs[0].window_ns == (ms(1), ms(4))
        assert clipped.specs[1].window_ns == (ms(1), ms(3))

    def test_open_ended_windows_get_closed(self):
        plan = FaultPlan(seed=1, specs=(FaultSpec(kind=DROP, where="a"),))
        clipped = lab._clip_plan(plan, ms(2))
        assert clipped.specs[0].window_ns == (0, ms(2))


# ------------------------------------------ directed-pair fault selectors


class TestDirectedPairFaults:
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
                seed=SEED,
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
        workload = Workload(WorkloadSpec(seed=SEED, explicit_flows=flows), fleet)
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


# --------------------------------------------------------- route resolution


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


# ------------------------------------------------- sharded-run fault parity


class TestShardedFaultParity:
    def test_process_mode_matches_inline_under_faults(self):
        """S3: a sharded run is mode-independent even with faults active."""
        from repro.cluster.conductor import Conductor

        fleet = line_fleet(2, 2, hub_ports=8)
        workload = WorkloadSpec(
            seed=3, rmp_flows=2, rpc_flows=1, tcp_flows=1, tcp_bytes=2048
        )
        plan = FaultPlan(
            seed=3,
            specs=(
                FaultSpec(
                    kind=DROP, where="*", probability=1.0, window_ns=(0, us(300))
                ),
                FaultSpec(
                    kind=STALL,
                    where="cab-00-00",
                    stall_ns=us(50),
                    probability=1.0,
                    window_ns=(0, ms(1)),
                ),
            ),
        )
        runs = {
            mode: Conductor(
                fleet, workload, n_workers=2, mode=mode, fault_plan=plan
            ).run()
            for mode in ("inline", "process")
        }
        inline, process = runs["inline"], runs["process"]
        assert inline.protocol_digest() == process.protocol_digest()

        def comparable(result):
            # Ring/pickle byte counters measure the seam transport itself
            # (rings only exist in process mode); the conductor's
            # coordination counts and meter readings must match.
            return (
                result.events,
                result.sim_ns,
                result.barriers,
                result.epochs,
                result.null_elided,
                result.fastpath,
                result.handoffs,
            )

        assert comparable(inline) == comparable(process)
        # The plan really fired: dropped frames cost recoveries.
        assert inline.recoveries > 0
