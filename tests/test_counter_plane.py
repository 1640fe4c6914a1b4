"""The one counter plane: every ``.stats`` is a scope of ``system.metrics``.

Four properties the one store makes stateable, plus the read surface the
host-clock benchmark (``perf/``, outside ``testpaths``) depends on:

* completeness — no counter lives outside the store;
* telemetry on vs off — the same store, the same events, the same clock;
* ``collect()`` is idempotent down to the rendered bytes;
* two components cannot share one counter namespace.
"""

import importlib.util
import inspect
import pathlib
import re
import sys
from collections import deque

import pytest

from repro.apps.traffic import measure_rtt
from repro.bench.harness import two_hosted_nodes
from repro.cluster.fleet import build_fleet_system, line_fleet
from repro.cluster.workload import Workload, WorkloadSpec
from repro.errors import ConfigurationError
from repro.faults.catalogue import build as build_case
from repro.host.ethernet import EthernetNIC, EthernetSegment
from repro.system import NectarSystem
from repro.telemetry import observe
from repro.telemetry.metrics import CounterScope

REPO = pathlib.Path(__file__).resolve().parent.parent


def reachable_stats(*roots):
    """Every distinct ``.stats`` bag reachable from ``roots``, with an owner.

    Follows attributes of ``repro`` objects, container contents and bound
    methods (hooks registered across the host/CAB seam) — the object graph
    a reader would have to know to find a counter by hand.
    """
    found, seen, queue = {}, set(), deque(roots)
    while queue:
        obj = queue.popleft()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            queue.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            queue.extend(obj)
        elif inspect.ismethod(obj):
            queue.append(obj.__self__)
        elif type(obj).__module__.startswith("repro."):
            stats = getattr(obj, "stats", None)
            if stats is not None:
                found.setdefault(id(stats), (obj, stats))
            slots = [
                name
                for cls in type(obj).__mro__
                for name in getattr(cls, "__slots__", ())
            ]
            queue.extend(getattr(obj, "__dict__", {}).values())
            queue.extend(getattr(obj, name, None) for name in slots)
    return list(found.values())


def assert_complete(system, *more_roots):
    """No counter outside the store: scopes mounted, union == registry."""
    union = {}
    bags = reachable_stats(system, *more_roots)
    for owner, stats in bags:
        assert isinstance(stats, CounterScope), owner
        assert stats.registry is system.metrics, f"{owner!r}.stats is not mounted"
        assert system.metrics.mounts()[stats.prefix] is stats
        union.update(
            {f"{stats.prefix}.{name}": value for name, value in stats.snapshot().items()}
        )
    # The two bags that are not a component's ``.stats``.
    others = {"host", "cycles"} & set(system.metrics.mounts())
    union.update(system.metrics.counters(*others))
    assert union == system.metrics.counters()
    return bags


def scope_patterns(system, hosts=(), segments=()):
    """The run's mount prefixes with instance names generalized."""
    kinds = {name: "<cab>" for name in system.nodes}
    kinds.update({name: "<hub>" for name in system.hubs})
    kinds.update({name: "<host>" for name in hosts})
    kinds.update({name: "<segment>" for name in segments})
    patterns = set()
    for prefix in system.metrics.mounts():
        head, _, rest = prefix.partition(".")
        if rest.startswith("mbox."):
            rest = "mbox.<mailbox>"
        patterns.add(".".join(filter(None, (kinds.get(head, head), rest))))
    return patterns


@pytest.fixture(scope="module")
def table1_result():
    return observe.run_observe("table1", seed=7)


@pytest.fixture(scope="module")
def hosted_rig():
    """Hosts, VME, doorbells, an Ethernet segment and a fault plan."""
    system, hosted_a, hosted_b = two_hosted_nodes()
    system.attach_fault_plan(build_case("lossy-link", 7).plan)
    segment = EthernetSegment(system.sim, system.costs)
    nic_a = EthernetNIC(hosted_a.host, segment)
    EthernetNIC(hosted_b.host, segment)
    hosted_a.host.fork_process(nic_a.send(hosted_b.host.name, b"\x5A" * 64))
    measure_rtt(system, hosted_a, hosted_b, "rmp", rounds=3, warmup=1)
    return system, hosted_a, hosted_b, segment


class TestCompleteness:
    def test_table1_counters_all_live_in_the_store(self, table1_result):
        bags = assert_complete(table1_result.system)
        # 2 x (runtime, board, CPU) + fabric + hub + every mailbox.
        assert len(bags) == len(table1_result.system.metrics.mounts()) - 2

    def test_hosted_rig_counters_all_live_in_the_store(self, hosted_rig):
        system, *hosted_and_segment = hosted_rig
        assert_complete(system, *hosted_and_segment)
        live = system.metrics.counters()
        for series in (
            "cab-a.vme.pio_bytes",
            "cab-a.sig.pushed",
            "host-cab-a.cab_doorbells",
            "host-cab-a.cpu.context_switches",
            "ether0.packets_sent",
            "fault.fault_corrupt",
        ):
            assert live[series] > 0, series

    def test_docs_scope_table_matches_a_real_run(self, table1_result, hosted_rig):
        system, hosted_a, hosted_b, segment = hosted_rig
        ran = scope_patterns(table1_result.system) | scope_patterns(
            system,
            hosts=(hosted_a.host.name, hosted_b.host.name),
            segments=(segment.name,),
        )
        text = (REPO / "docs" / "observability.md").read_text()
        section = text.split("## Metrics naming")[1].split("\n## ")[0]
        documented = set(re.findall(r"^\| `([^`]+)` \|", section, flags=re.M))
        assert documented == ran


def _run_bare_or_observed(workload, telemetry, monkeypatch):
    """One observe workload on the real rig, with telemetry on or off."""
    runner, chaos, rounds = observe.WORKLOADS[workload]
    with monkeypatch.context() as patch:
        if not telemetry:
            patch.setattr(NectarSystem, "enable_telemetry", lambda self: None)
        system = observe._build_rig(7, chaos)
    lines = runner(system, rounds)
    assert (system.telemetry is not None) == telemetry
    return (
        system.metrics.counters(),
        system.sim.events_scheduled,
        system.now,
        {name: node.cab.cpu.busy_ns for name, node in system.nodes.items()},
        lines,
    )


class TestTelemetryOnOffInvariant:
    """ROADMAP: observing a run does not change it — now over every counter."""

    @pytest.mark.parametrize("workload", sorted(observe.WORKLOADS))
    def test_observe_workloads(self, workload, monkeypatch):
        observed = _run_bare_or_observed(workload, True, monkeypatch)
        bare = _run_bare_or_observed(workload, False, monkeypatch)
        assert observed == bare
        assert len(bare[0]) >= 30

    def test_reference_fleet_of_64_cabs(self):
        fleet = line_fleet(4, 16, hub_ports=18)
        spec = WorkloadSpec(
            seed=5, rmp_flows=8, rpc_flows=6, tcp_flows=2, tcp_bytes=2048,
            mcast_flows=1, mcast_messages=3, barrier_flows=1,
        )

        def run(telemetry):
            system = build_fleet_system(fleet)
            if telemetry:
                system.enable_telemetry()
            workload = Workload(spec, fleet)
            workload.install(system)
            system.run()
            assert not workload.incomplete(system)
            return system.metrics.counters(), system.sim.events_scheduled, system.now

        assert run(True) == run(False)


class TestCollectIsIdempotent:
    def test_collect_twice_renders_identical_bytes(self, table1_result):
        telemetry = table1_result.telemetry
        assert telemetry.metrics is table1_result.system.metrics
        first = (telemetry.render_metrics_json(), telemetry.render_prometheus())
        telemetry.collect()
        assert (telemetry.render_metrics_json(), telemetry.render_prometheus()) == first


class TestMountCollisions:
    def test_a_hub_named_net_fails_at_construction(self):
        with pytest.raises(ConfigurationError, match="'net'"):
            NectarSystem().add_hub("net")

    def test_a_hub_and_a_cab_cannot_share_a_name(self):
        system = NectarSystem()
        hub = system.add_hub("cab-a")
        with pytest.raises(ConfigurationError, match="'cab-a'"):
            system.add_node("cab-a", hub, 0)


class TestBenchmarkReadSurface:
    """``perf/workloads.py`` reads counters through public attributes."""

    def test_system_counters_reads_every_key(self, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "perf_workloads", REPO / "perf" / "workloads.py"
        )
        perf_workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, perf_workloads)  # its dataclasses
        spec.loader.exec_module(perf_workloads)

        # The benchmark's own two-CAB rig and RMP stream, four messages long.
        workload = perf_workloads.WORKLOADS["cab_small"]
        rig = workload.build(seed=1, scale=500)
        workload.run(rig)
        assert workload.outcome(rig).failures == []
        system = rig.system

        counters = perf_workloads._system_counters(system)
        assert set(counters) == {
            "sim.events", "cab.context_switches", "cab.interrupts_serviced",
            "protocols.frames_sent", "protocols.bytes_sent", "protocols.retransmits",
            "hub.grants", "hub.frames_delivered", "buf.memcpy_bytes",
            "buf.buffers_allocated", "buf.live_buffers_end", "model.sim_ns",
        }
        assert counters["buf.live_buffers_end"] == 0
        assert counters["protocols.retransmits"] == 0
        # What the benchmark reads by walking objects is what the store says.
        live = system.metrics.counters()
        assert counters["cab.context_switches"] == (
            live["cab-a.cpu.context_switches"] + live["cab-b.cpu.context_switches"]
        )
        assert counters["protocols.frames_sent"] == (
            live["cab-a.hw.frames_sent"] + live["cab-b.hw.frames_sent"]
        )
        assert counters["hub.grants"] == sum(system.metrics.counters("hub0").values()) > 0
        assert counters["hub.frames_delivered"] == live["net.frames_delivered"] >= 8
        assert counters["buf.buffers_allocated"] == live["host.buffers_allocated"] > 0
