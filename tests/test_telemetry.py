"""Unit tests for the telemetry plane: spans, metrics, exporter, profiler."""

import json

import pytest

from repro.apps import traffic
from repro.cab.cpu import CPU, PRIORITY_APPLICATION
from repro.errors import ConfigurationError, NectarError
from repro.hw.fifo import ByteFIFO, Chunk
from repro.hw.vme import VMEBus
from repro.model.costs import CostModel
from repro.sim import Simulator
from repro.sim.trace import TraceEvent, TraceRecorder, Tracer
from repro.system import NectarSystem
from repro.telemetry import (
    CounterScope,
    CycleProfiler,
    Histogram,
    MetricsRegistry,
    export_chrome_trace,
)
from repro.telemetry.perfetto import match_spans, pair_spans


def make_tracer(recorder):
    clock = {"now": 0}
    tracer = Tracer(lambda: clock["now"])
    tracer.sink = recorder
    return tracer, clock


# ------------------------------------------------------------------- tracer


class TestSpans:
    def test_begin_end_pairs_become_durations(self):
        recorder = TraceRecorder()
        tracer, clock = make_tracer(recorder)
        tracer.begin("mailbox", "begin_put", track="cab-a.cpu/thread:t")
        clock["now"] = 700
        tracer.end("mailbox", "begin_put", track="cab-a.cpu/thread:t")
        assert match_spans(recorder.events) == [("mailbox", "begin_put", 700)]

    def test_nested_spans_match_stack_discipline(self):
        recorder = TraceRecorder()
        tracer, clock = make_tracer(recorder)
        tracer.begin("a", "outer", track="t")
        clock["now"] = 100
        tracer.begin("b", "inner", track="t")
        clock["now"] = 150
        tracer.end("b", "inner", track="t")
        clock["now"] = 400
        tracer.end("a", "outer", track="t")
        assert match_spans(recorder.events) == [
            ("b", "inner", 50),
            ("a", "outer", 400),
        ]

    def test_async_spans_match_by_id_across_tracks(self):
        recorder = TraceRecorder()
        tracer, clock = make_tracer(recorder)
        tracer.async_begin("datalink", "frame", 11)
        tracer.async_begin("datalink", "frame", 12)
        clock["now"] = 900
        tracer.async_end("datalink", "frame", 12)
        clock["now"] = 1000
        tracer.async_end("datalink", "frame", 11)
        assert match_spans(recorder.events) == [
            ("datalink", "frame", 900),
            ("datalink", "frame", 1000),
        ]

    def test_unbalanced_spans_are_ignored(self):
        recorder = TraceRecorder()
        tracer, _clock = make_tracer(recorder)
        tracer.begin("a", "open-forever", track="t")
        tracer.async_begin("datalink", "frame", 5)  # dropped frame: no end
        tracer.end("b", "never-opened", track="other")
        assert match_spans(recorder.events) == []

    def test_span_context_manager(self):
        recorder = TraceRecorder()
        tracer, clock = make_tracer(recorder)
        with tracer.span("kernel", "work", track="t"):
            clock["now"] = 30
        assert match_spans(recorder.events) == [("kernel", "work", 30)]

    def test_recorder_component_filter(self):
        recorder = TraceRecorder()
        tracer, clock = make_tracer(recorder)
        tracer.emit("cab-a", "send")
        clock["now"] = 2_000
        tracer.emit("cab-b", "send")
        clock["now"] = 5_000
        tracer.emit("cab-b", "deliver")
        assert recorder.find("send", component="cab-b").time_ns == 2_000
        assert len(recorder.find_all("send")) == 2
        assert recorder.interval_ns("send", "deliver", component="cab-b") == 3_000
        assert (
            recorder.interval_ns(
                "send", "deliver", start_component="cab-a", end_component="cab-b"
            )
            == 5_000
        )
        with pytest.raises(KeyError):
            recorder.find("send", component="cab-z")


# ------------------------------------------------------------------ exporter


class TestChromeTraceExport:
    def _events(self):
        return [
            TraceEvent(0, "kernel", "irq:rx", phase="B", track="cab-a.cpu/irq:rx"),
            TraceEvent(250, "kernel", "irq:rx", phase="E", track="cab-a.cpu/irq:rx"),
            TraceEvent(300, "datalink", "frame", {"bytes": 64}, phase="b", span_id=77),
            TraceEvent(900, "datalink", "frame", phase="e", span_id=77),
            TraceEvent(1000, "fifo", "level", 128, phase="C", track="cab-a.fifo"),
            TraceEvent(1100, "rmp", "retransmit", {"seq": 3}),
        ]

    def test_export_is_valid_chrome_trace_json(self):
        payload = json.loads(export_chrome_trace(self._events()))
        assert payload["displayTimeUnit"] == "ns"
        events = payload["traceEvents"]
        phases = [event["ph"] for event in events]
        for phase in ("M", "B", "E", "b", "e", "C", "i"):
            assert phase in phases
        for event in events:
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)

    def test_timestamps_are_microseconds(self):
        payload = json.loads(export_chrome_trace(self._events()))
        begin = next(e for e in payload["traceEvents"] if e["ph"] == "B")
        assert begin["ts"] == 0.0
        end = next(e for e in payload["traceEvents"] if e["ph"] == "E")
        assert end["ts"] == 0.25  # 250 ns

    def test_track_metadata_names_processes_and_threads(self):
        payload = json.loads(export_chrome_trace(self._events()))
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        names = {(e["name"], e["args"]["name"]) for e in meta}
        assert ("process_name", "cab-a.cpu") in names
        assert ("thread_name", "irq:rx") in names

    def test_async_ids_are_normalized_densely(self):
        # Frame seqnos come from a process-global counter; the export must
        # not leak them.  Two event lists identical except for the raw ids
        # serialize to the same bytes.
        def events(base):
            return [
                TraceEvent(0, "datalink", "frame", phase="b", span_id=base),
                TraceEvent(5, "datalink", "frame", phase="b", span_id=base + 1),
                TraceEvent(9, "datalink", "frame", phase="e", span_id=base),
            ]

        assert export_chrome_trace(events(100)) == export_chrome_trace(events(90_000))

    def test_export_is_byte_stable(self):
        events = self._events()
        assert export_chrome_trace(events) == export_chrome_trace(list(events))


# ------------------------------------------------------------------- metrics


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        stats = registry.mount("rx", CounterScope())
        stats.add("frames")
        stats.add("frames", 3)
        registry.gauge("level").set(7)
        registry.gauge("level").add(-2)
        snap = registry.snapshot()
        assert snap["rx.frames"] == {"type": "counter", "value": 4}
        assert snap["level"] == {"type": "gauge", "value": 5}

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            CounterScope().add("x", -1)

    def test_detached_scope_counts_but_is_exported_nowhere(self):
        registry = MetricsRegistry()
        alone = CounterScope()
        alone.add("frames")
        child = alone.mount("mbox.inbox", CounterScope())
        assert alone.value("frames") == 1
        assert alone.registry is None and child.registry is None
        assert registry.counters() == {}

    def test_mounted_scope_places_children_beside_itself(self):
        registry = MetricsRegistry()
        runtime = registry.mount("cab-a", CounterScope())
        inbox = runtime.mount("mbox.inbox", CounterScope())
        inbox.add("messages_queued", 2)
        assert (inbox.registry, inbox.prefix) == (registry, "cab-a.mbox.inbox")
        assert registry.counters() == {"cab-a.mbox.inbox.messages_queued": 2}
        assert runtime.snapshot() == {}  # a scope snapshots its own counters only

    def test_counters_selects_exact_mount_points(self):
        registry = MetricsRegistry()
        for prefix in ("cab-a", "cab-a.hw", "cab-a.cpu", "net"):
            registry.mount(prefix, CounterScope()).add("n")
        assert registry.counters("cab-a", "net") == {"cab-a.n": 1, "net.n": 1}
        with pytest.raises(KeyError):
            registry.counters("cab-z")
        assert list(registry.counters()) == ["cab-a.cpu.n", "cab-a.hw.n", "cab-a.n", "net.n"]

    def test_mounting_two_bags_at_one_prefix_is_an_error(self):
        registry = MetricsRegistry()
        registry.mount("net", CounterScope())
        with pytest.raises(ConfigurationError, match="'net'"):
            registry.mount("net", CounterScope())
        with pytest.raises(ConfigurationError):
            registry.mount("", CounterScope())

    def test_histogram_buckets_and_overflow(self):
        hist = Histogram("lat", buckets=(10, 100))
        for value in (5, 10, 11, 1000):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["counts"] == [2, 1]
        assert snap["overflow"] == 1
        assert snap["count"] == 4
        assert snap["sum"] == 1026

    def test_histogram_rejects_bad_buckets(self):
        for bad in ((), (100, 10), (1000, 1000)):
            with pytest.raises(NectarError, match="strictly ascending"):
                Histogram("lat", buckets=bad)
        # Equal bounds would render two le="1000" lines in the exposition.
        assert Histogram("lat", buckets=[10, 1000]).bounds == (10, 1000)

    def test_scopes_share_one_registry(self):
        registry = MetricsRegistry()
        cab = registry.mount("cab-a", CounterScope())
        cab.add("frames", 2)
        cab.mount("hw", CounterScope()).add("crc_errors")
        assert registry.names() == ["cab-a.frames", "cab-a.hw.crc_errors"]
        assert registry.series_count() == 2

    def test_kind_collision_is_an_error(self):
        registry = MetricsRegistry()
        registry.gauge("x")
        with pytest.raises(NectarError):
            registry.histogram("x")
        registry.mount("cab-a", CounterScope()).add("level")
        registry.gauge("cab-a.level")
        with pytest.raises(NectarError, match="cab-a.level"):
            registry.snapshot()

    def test_render_json_is_byte_stable_and_sorted(self):
        registry = MetricsRegistry()
        registry.mount("b", CounterScope()).add("n")
        registry.mount("a", CounterScope()).add("n", 2)
        first = registry.render_json()
        assert first == registry.render_json()
        decoded = json.loads(first)
        assert list(decoded["series"]) == ["a.n", "b.n"]

    def test_render_prometheus_format(self):
        registry = MetricsRegistry()
        registry.mount("cab-a", CounterScope()).add("frames", 4)
        hist = registry.histogram("rtt_ns", buckets=(100, 1000))
        hist.observe(50)
        hist.observe(5000)
        text = registry.render_prometheus()
        assert "# TYPE repro_cab_a_frames counter" in text
        assert "repro_cab_a_frames 4" in text
        assert 'repro_rtt_ns_bucket{le="100"} 1' in text
        assert 'repro_rtt_ns_bucket{le="+Inf"} 2' in text
        assert "repro_rtt_ns_sum 5050" in text
        assert "repro_rtt_ns_count 2" in text
        assert text.endswith("\n")

    def test_prometheus_histogram_buckets_are_cumulative(self):
        """Averages and rates must be computable from the export alone:
        buckets are cumulative, ``+Inf`` equals ``_count``, and ``_sum``
        is the exact observation total (Prometheus exposition 0.0.4)."""
        registry = MetricsRegistry()
        hist = registry.histogram("lat_ns", buckets=(10, 100, 1000))
        for value in (5, 7, 50, 500, 5000, 50000):
            hist.observe(value)
        lines = registry.render_prometheus().splitlines()
        buckets = [line for line in lines if line.startswith("repro_lat_ns_bucket")]
        assert buckets == [
            'repro_lat_ns_bucket{le="10"} 2',
            'repro_lat_ns_bucket{le="100"} 3',
            'repro_lat_ns_bucket{le="1000"} 4',
            'repro_lat_ns_bucket{le="+Inf"} 6',
        ]
        assert "repro_lat_ns_sum 55562" in lines
        assert "repro_lat_ns_count 6" in lines

    def test_prometheus_inf_bucket_counts_overflow(self):
        registry = MetricsRegistry()
        hist = registry.histogram("x", buckets=(10,))
        hist.observe(1)
        hist.observe(999)  # beyond the last bound
        text = registry.render_prometheus()
        assert 'repro_x_bucket{le="10"} 1' in text
        assert 'repro_x_bucket{le="+Inf"} 2' in text
        assert "repro_x_count 2" in text

    def test_render_prometheus_is_byte_stable(self):
        registry = MetricsRegistry()
        registry.mount("rx", CounterScope()).add("frames", 3)
        registry.histogram("rtt", buckets=(10,)).observe(4)
        assert registry.render_prometheus() == registry.render_prometheus()

    def test_render_json_stays_byte_stable_with_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("rtt", buckets=(10, 100)).observe(42)
        first = registry.render_json()
        assert first == registry.render_json()
        decoded = json.loads(first)
        assert decoded["series"]["rtt"]["value"]["counts"] == [0, 1]


# ------------------------------------------------------------------ profiler


class TestCycleProfiler:
    def test_accounting_and_categories(self):
        profiler = CycleProfiler()
        profiler.account("cab-a.cpu", "thread", "tcp-send", 400)
        profiler.account("cab-a.cpu", "thread", "tcp-send", 100)
        profiler.account("cab-a.cpu", "irq", "rx", 250)
        profiler.account("cab-b.cpu", "sched", "context-switch", 90)
        assert profiler.total_ns() == 840
        assert profiler.total_ns("cab-a.cpu") == 750
        assert profiler.by_category("cab-a.cpu") == {"irq": 250, "thread": 500}

    def test_non_positive_durations_ignored(self):
        profiler = CycleProfiler()
        profiler.account("cpu", "thread", "t", 0)
        profiler.account("cpu", "thread", "t", -5)
        assert profiler.total_ns() == 0

    def test_folded_output(self):
        profiler = CycleProfiler()
        profiler.account("cab-a.cpu", "thread", "client", 500)
        profiler.account("cab-a.cpu", "irq", "rx", 250)
        assert profiler.folded() == (
            "cab-a.cpu;irq;rx 250\ncab-a.cpu;thread;client 500\n"
        )

    def test_snapshot_is_sorted(self):
        profiler = CycleProfiler()
        profiler.account("b", "x", "y", 1)
        profiler.account("a", "x", "y", 2)
        assert list(profiler.snapshot()) == ["a;x;y", "b;x;y"]


# ------------------------------------------------------------- the one seam


class TestOneTracerPerSimulation:
    def test_components_on_a_bare_simulator_emit_once_a_sink_is_set(self):
        sim = Simulator()
        cpu = CPU(sim, name="cpu")
        fifo = ByteFIFO(sim, 64, name="fifo")
        vme = VMEBus(sim, CostModel(), name="vme")
        recorder = TraceRecorder()
        sim.tracer.sink = recorder
        sim.tracer.profiler = profiler = CycleProfiler()

        def work():
            yield 100

        def bus():
            yield from vme.copy(cpu, 8)

        cpu.add_thread(work(), PRIORITY_APPLICATION, "work")
        cpu.add_thread(bus(), PRIORITY_APPLICATION, "bus")
        fifo.push(Chunk(frame="f", offset=0, length=16, is_first=True, is_last=True))
        fifo.pop()
        sim.run()
        tracks = {(event.component, event.track) for event in recorder.events}
        assert ("kernel", "cpu/sched") in tracks
        assert ("fifo", "fifo") in tracks
        assert ("vme", "vme") in tracks
        assert profiler.total_ns("cpu") == cpu.busy_ns > 0

    def test_a_node_added_after_enable_telemetry_is_traced_and_profiled(self):
        system = NectarSystem()
        hub = system.add_hub("hub0")
        early = system.add_node("cab-a", hub, 0)
        telemetry = system.enable_telemetry()
        late = system.add_node("cab-late", hub, 1)
        client, server = traffic.pair("datagram", early, late, "in-a", "in-late")
        traffic.fork(late, "echo", server.echo(), service=True)
        traffic.fork(early, "client", client.pingpong([b"x" * 64] * 3))
        system.run()
        tracks = {event.track for event in telemetry.recorder.events}
        assert "cab-late.dma-rx" in tracks and "link:cab-late" in tracks
        assert late.cab.cpu.busy_ns > 0
        for node in system.nodes.values():
            cpu = node.cab.cpu
            assert telemetry.profiler.total_ns(cpu.name) == cpu.busy_ns

    def test_pair_spans_tells_sync_tracks_from_async_spans(self):
        events = [
            TraceEvent(0, "dl", "frame", phase="b", span_id=1),
            TraceEvent(5, "k", "outer", phase="B", track="t"),
            TraceEvent(9, "k", "outer", phase="E", track="t"),
            TraceEvent(12, "dl", "frame", phase="e", span_id=1),
        ]
        assert [(begin.label, end_ns, track) for begin, end_ns, track in pair_spans(events)] == [
            ("outer", 9, "t"),
            ("frame", 12, None),
        ]


# ------------------------------------------------------- runtime-owned spans


@pytest.fixture(scope="module")
def recv_spans():
    """``(component, track)`` of every closed ``recv`` span of two traced
    runs: the Table 1 transports, and a fleet with a multicast and a
    barrier flow; plus the span histograms the second run exported."""
    from repro.cluster.fleet import build_fleet_system, line_fleet
    from repro.cluster.workload import Workload, WorkloadSpec
    from repro.telemetry.observe import run_observe

    fleet = line_fleet(1, 6, hub_ports=8)
    system = build_fleet_system(fleet)
    telemetry = system.enable_telemetry()
    workload = Workload(
        WorkloadSpec(
            seed=3, rmp_flows=0, rpc_flows=0, tcp_flows=0,
            mcast_flows=1, mcast_messages=2, barrier_flows=1, barrier_rounds=1,
        ),
        fleet,
    )
    workload.install(system)
    system.run()
    assert not workload.incomplete(system)
    telemetry.collect()
    spans = set()
    for recorder in (run_observe("table1", rounds=1).telemetry.recorder, telemetry.recorder):
        spans.update(
            (begin.component, track)
            for begin, _end_ns, track in pair_spans(recorder.events)
            if begin.label == "recv"
        )
    return spans, set(telemetry.metrics.names())


class TestReceiveSpans:
    """The Nectar receive table opens one ``(<scope>, "recv")`` span per
    accepted packet, so every sub-protocol is seen without code of its own."""

    @pytest.mark.parametrize("scope", ["datagram", "rmp", "rpc", "nmp", "coll"])
    def test_every_nectar_sub_protocol_gets_a_recv_span(self, recv_spans, scope):
        spans, _series = recv_spans
        tracks = {track for component, track in spans if component == scope}
        assert tracks, f"no closed ({scope!r}, 'recv') span"
        assert all("/irq:" in track for track in tracks)

    def test_recv_spans_feed_the_span_histograms(self, recv_spans):
        _spans, series = recv_spans
        assert {"span.nmp.recv.duration_ns", "span.coll.recv.duration_ns"} <= series
