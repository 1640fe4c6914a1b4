"""One-stop telemetry session: recorder + cycle profiler over the store.

A :class:`Telemetry` object bundles the trace recorder and the cycle
profiler, hooks them onto a :class:`~repro.system.NectarSystem`'s tracer
(``system.enable_telemetry()`` is the usual entry point), and reports
through the system's own metrics store: ``telemetry.metrics is
system.metrics``.  Counters are already there — every component's
``.stats`` is mounted in the store — so :meth:`Telemetry.collect` adds only
what is not a counter: the gauges, the span-duration histograms and the
profiler's cycles.

Collecting happens *after* the simulation has gone idle — sampling during
the run would require simulation events of its own and perturb event
order.  Everything collected is a simulated quantity, so two runs with the
same seed produce byte-identical reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.trace import TraceRecorder
from repro.telemetry.metrics import CounterScope, MetricsRegistry
from repro.telemetry.perfetto import export_chrome_trace, match_spans
from repro.telemetry.profiler import CycleProfiler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.system import NectarSystem

__all__ = ["Telemetry"]


class Telemetry:
    """Recorder and profiler for one system, reporting into its metrics store."""

    def __init__(self, system: "NectarSystem"):
        """Attach to ``system``: its tracer's sink and profiler hooks."""
        self.recorder = TraceRecorder()
        self.profiler = CycleProfiler()
        self.system = system
        self.metrics: MetricsRegistry = system.metrics
        self._cycles = self.metrics.mount("cycles", CounterScope())
        self._collected = False
        system.tracer.sink = self.recorder
        system.tracer.profiler = self.profiler

    # -- collect -----------------------------------------------------------

    def collect(self) -> MetricsRegistry:
        """Add gauges, span histograms and profiler cycles to the store.

        Call after the run.  Safe to call again (gauges and cycles are
        re-read from current state), but span durations are observed into
        their histograms only on the first call.
        """
        system = self.system
        metrics = self.metrics

        for name, node in system.nodes.items():
            metrics.gauge(f"{name}.cpu.busy_ns").set(node.cab.cpu.busy_ns)
            metrics.gauge(f"{name}.heap.bytes_in_use").set(
                node.runtime.heap.allocated_bytes
            )
            metrics.gauge(f"{name}.heap.free_bytes").set(node.runtime.heap.free_bytes)
        metrics.gauge("sim.elapsed_ns").set(system.sim.now)
        metrics.gauge("trace.events").set(len(self.recorder.events))

        if not self._collected:
            for component, label, duration in match_spans(self.recorder.events):
                metrics.histogram(f"span.{component}.{label}.duration_ns").observe(
                    duration
                )
            self._collected = True

        for stack, duration in self.profiler.snapshot().items():
            self._cycles.counts[stack.replace(";", ".")] = duration

        return metrics

    # -- exposition --------------------------------------------------------

    def export_trace(self) -> str:
        """The recorded events as byte-stable Chrome trace JSON."""
        return export_chrome_trace(self.recorder.events)

    def render_metrics_json(self) -> str:
        """Byte-stable JSON metrics exposition (collects first)."""
        return self.collect().render_json()

    def render_prometheus(self) -> str:
        """Prometheus text exposition (collects first)."""
        return self.collect().render_prometheus()

    def folded_profile(self) -> str:
        """Folded-stack cycle profile for flamegraph tooling."""
        return self.profiler.folded()
