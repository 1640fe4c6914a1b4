"""End-to-end tests for ``python -m repro observe`` and the telemetry plane.

Covers the acceptance criteria: the table1 trace holds nested spans from
many distinct components, the metrics report has a rich series set, both
artifacts are byte-identical across same-seed runs (in-process and via the
CLI), and — the zero-observer-effect invariant — enabling telemetry does
not change the simulation by one event or one nanosecond.
"""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.telemetry.observe import WORKLOADS, run_observe
from repro.telemetry.perfetto import match_spans

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"


@pytest.fixture(scope="module")
def table1_result():
    return run_observe("table1", seed=7, rounds=2)


class TestObserveTable1:
    def test_trace_covers_the_instrumented_components(self, table1_result):
        components = set(table1_result.telemetry.recorder.components())
        expected = {
            "kernel",
            "mailbox",
            "heap",
            "fifo",
            "dma",
            "datalink",
            "rmp",
            "tcp",
            "hub",
        }
        assert expected <= components
        assert len(components) >= 8

    def test_trace_has_nested_spans(self, table1_result):
        spans = match_spans(table1_result.telemetry.recorder.events)
        span_components = {component for component, _label, _ns in spans}
        assert {"kernel", "mailbox", "datalink", "rmp", "tcp", "hub", "dma"} <= (
            span_components
        )
        assert all(duration >= 0 for _c, _l, duration in spans)

    def test_trace_json_loads_and_has_all_phases(self, table1_result):
        payload = json.loads(table1_result.trace_json())
        phases = {event["ph"] for event in payload["traceEvents"]}
        assert {"M", "B", "E", "b", "e", "C"} <= phases

    def test_span_stacks_balance_per_track(self, table1_result):
        depth = {}
        for event in table1_result.telemetry.recorder.events:
            if event.phase not in ("B", "E"):
                continue
            track = event.track or event.component
            if event.phase == "B":
                depth[track] = depth.get(track, 0) + 1
            else:
                depth[track] = depth.get(track, 0) - 1
                assert depth[track] >= 0, f"E without B on track {track}"

    def test_metrics_report_is_rich(self, table1_result):
        table1_result.telemetry.collect()
        metrics = table1_result.telemetry.metrics
        assert metrics.series_count() >= 25
        names = metrics.names()
        assert any(name.startswith("cab-a.") for name in names)
        assert any(name.startswith("net.") for name in names)
        assert any(name.startswith("span.") for name in names)
        assert any(name.startswith("cycles.") for name in names)

    def test_profiler_totals_equal_cpu_busy_ns_exactly(self, table1_result):
        profiler = table1_result.telemetry.profiler
        for node in table1_result.system.nodes.values():
            cpu = node.cab.cpu
            assert profiler.total_ns(cpu.name) == cpu.busy_ns

    def test_folded_profile_has_the_kernel_categories(self, table1_result):
        folded = table1_result.folded()
        for category in (";thread;", ";irq;", ";sched;", ";irq-overhead;"):
            assert category in folded


class TestDeterminismUnderObservation:
    def test_double_run_produces_byte_identical_artifacts(self):
        first = run_observe("table1", seed=7, rounds=2)
        second = run_observe("table1", seed=7, rounds=2)
        assert first.trace_json() == second.trace_json()
        assert first.metrics_json() == second.metrics_json()
        assert first.prometheus() == second.prometheus()
        assert first.folded() == second.folded()
        assert first.summary() == second.summary()

    def test_observation_has_zero_observer_effect(self):
        """Telemetry on vs off: same final clock, same counters everywhere."""
        from repro.system import NectarSystem
        from repro.telemetry.observe import _workload_table1

        def run(observed):
            system = NectarSystem()
            if observed:
                system.enable_telemetry()
            hub = system.add_hub("hub0")
            system.add_node("cab-a", hub, 0)
            system.add_node("cab-b", hub, 1)
            lines = _workload_table1(system, rounds=2)
            busy = {n: node.cab.cpu.busy_ns for n, node in system.nodes.items()}
            return system.now, system.metrics.counters(), busy, lines

        observed = run(True)
        bare = run(False)
        assert observed == bare


class TestObserveWorkloads:
    def test_rmp_stream_delivers_everything(self):
        result = run_observe("rmp-stream", seed=7, rounds=4)
        assert "delivered 4/4 messages" in result.summary()
        assert "in_order=yes" in result.summary()

    def test_chaos_workload_shows_recovery_in_telemetry(self):
        result = run_observe("chaos", seed=7, rounds=8)
        summary = result.summary()
        assert "delivered 8/8 messages" in summary
        # The lossy-link scenario forces retransmissions, which must be
        # visible in both the summary and the metrics plane.
        retransmits = result.system.nodes["cab-a"].runtime.stats.value(
            "rmp_retransmits"
        )
        assert retransmits > 0
        metrics = json.loads(result.metrics_json())
        assert metrics["series"]["cab-a.rmp_retransmits"]["value"] == retransmits

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            run_observe("nope")

    def test_workload_table_is_complete(self):
        assert set(WORKLOADS) == {"table1", "rmp-stream", "chaos"}


def run_observe_cli(*args, tmpdir):
    return subprocess.run(
        [sys.executable, "-m", "repro", "observe", *args],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=str(tmpdir),
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )


class TestObserveCLI:
    def test_cli_writes_byte_identical_artifacts(self, tmp_path):
        args = [
            "--workload",
            "table1",
            "--rounds",
            "2",
            "--trace",
            "out.json",
            "--metrics",
            "m.json",
        ]
        first = run_observe_cli(*args, tmpdir=tmp_path)
        assert first.returncode == 0, first.stdout + first.stderr
        trace_1 = (tmp_path / "out.json").read_bytes()
        metrics_1 = (tmp_path / "m.json").read_bytes()
        second = run_observe_cli(*args, tmpdir=tmp_path)
        assert second.returncode == 0
        assert (tmp_path / "out.json").read_bytes() == trace_1
        assert (tmp_path / "m.json").read_bytes() == metrics_1
        assert first.stdout == second.stdout
        payload = json.loads(trace_1)
        assert payload["traceEvents"]

    def test_cli_list_and_bad_args(self, tmp_path):
        listing = run_observe_cli("--list", tmpdir=tmp_path)
        assert listing.returncode == 0
        for name in ("table1", "rmp-stream", "chaos"):
            assert name in listing.stdout
        bad = run_observe_cli("--workload", "bogus", tmpdir=tmp_path)
        assert bad.returncode == 2
        assert "unknown workload" in bad.stderr
