"""repro.telemetry: the simulation-wide observability plane.

Three cooperating pieces (see ``docs/observability.md``):

* **Spans** — :mod:`repro.sim.trace` emits begin/end/instant/counter events
  from every hot layer (kernel scheduler, mailboxes, heap, FIFO/DMA/VME,
  datalink, RMP, TCP, hub crossbar); :mod:`repro.telemetry.perfetto`
  exports them as a deterministic Chrome trace-event JSON file that loads
  directly in https://ui.perfetto.dev.
* **Metrics** — :mod:`repro.telemetry.metrics` is the system's one store
  (``system.metrics``, present telemetry on or off): every component's
  ``.stats`` is a counter scope mounted in it, next to gauges and
  fixed-bucket span histograms, with byte-stable JSON and Prometheus-text
  exposition.
* **Cycle profiler** — :mod:`repro.telemetry.profiler` attributes simulated
  CPU cycles per CAB thread / interrupt handler / scheduler overhead and
  emits folded-stack output for standard flamegraph tooling.

Spans and the profiler are off by default and cost one attribute check per
hook; counters always count.  Instrumentation records *zero* simulated
time, so the observed run is bit-identical to the unobserved one.
"""

from repro.telemetry.metrics import CounterScope, Gauge, Histogram, MetricsRegistry
from repro.telemetry.perfetto import export_chrome_trace
from repro.telemetry.profiler import CycleProfiler
from repro.telemetry.session import Telemetry

__all__ = [
    "CounterScope",
    "CycleProfiler",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Telemetry",
    "export_chrome_trace",
]
