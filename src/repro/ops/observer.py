"""The observer plane: a flight recorder sampling the live system.

Everything the operator side of the ops lab knows comes through here.  A
:class:`FlightRecorder` attaches to a running :class:`~repro.system.NectarSystem`
and samples *operator-visible* state at a fixed simulated-time cadence:
per-CAB runtime and hardware counters, FIFO occupancy (including bytes
made ungrantable by back-pressure), CPU busy time, and the fabric's
``net.*`` counters.  It also records the shared tracer's span stream and
distills the slow spans into an event log.  The harvest is a
:class:`Journal` — plain data with a byte-stable JSON rendering — and the
detectors in :mod:`repro.ops.detect` consume *only* the journal, never
the live objects.

Two disciplines keep the lab honest:

* **Operator visibility.**  Of the system's metrics store the recorder
  selects the ``<cab>``, ``<cab>.hw`` and ``net`` counter scopes only; the
  injector's own ``fault.*`` scope and the per-mailbox scopes that count
  injected losses are *not selected* — a real NOC does not get a counter
  that says "a fault was injected here".  The
  datalink's ``hw.dl_fault_drops`` stays visible: it is this simulation's
  analog of an interface's ``rx_dropped``, which real systems do export
  without knowing the cause.

* **Zero perturbation.**  The sampling process only *reads* state; it
  adds timer events to the queue but never touches a FIFO, mailbox, or
  protocol machine, so the simulated behavior with the recorder attached
  is bit-identical to the behavior without it (the tests assert this per
  incident).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Generator, List, Optional

from repro.sim.trace import TraceRecorder
from repro.telemetry.perfetto import pair_spans
from repro.units import us

__all__ = ["FlightRecorder", "Journal"]

#: Spans at least this long (ns) are promoted into the journal's event log.
SLOW_SPAN_NS = us(200)

#: The operator-visible counter scopes of the metrics store: per node the
#: runtime/protocol scope and the board, plus the fabric.
NODE_SCOPES = ("", ".hw")
FABRIC_SCOPES = ("net",)

#: Hard cap on event-log entries; the overflow count is recorded so a
#: truncated log never silently reads as a quiet system.
MAX_EVENTS = 256


class Journal:
    """The flight recorder's harvest: metadata, samples, and an event log.

    ``samples`` is a list of ``{"time_ns": t, "metrics": {name: int}}``
    records on the fixed cadence grid; zero-valued series are omitted per
    sample (absence reads as zero through :meth:`value`).  ``events`` is
    the slow-span log.  :meth:`render` is canonical JSON — byte-stable
    for a deterministic run, which is what the lab's double-run check and
    the committed golden report rely on.
    """

    def __init__(
        self,
        meta: dict,
        samples: List[dict],
        events: List[dict],
        events_dropped: int = 0,
    ):
        self.meta = meta
        self.samples = samples
        self.events = events
        self.events_dropped = events_dropped

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Canonical (byte-stable) JSON of the whole journal."""
        return json.dumps(
            {
                "meta": self.meta,
                "samples": self.samples,
                "events": self.events,
                "events_dropped": self.events_dropped,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def sha256(self) -> str:
        """Digest of the rendered journal (the report's journal fingerprint)."""
        return hashlib.sha256(self.render().encode("ascii")).hexdigest()

    # -- operator queries ----------------------------------------------------

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    def time(self, index: int) -> int:
        """Simulated time (ns) of sample ``index``."""
        return self.samples[index]["time_ns"]

    def value(self, name: str, index: int) -> int:
        """Series value at sample ``index`` (0 when the series is absent)."""
        return self.samples[index]["metrics"].get(name, 0)

    def delta(self, name: str, index: int) -> int:
        """Change of a series over the interval ending at sample ``index``."""
        return self.value(name, index) - self.value(name, index - 1)

    def cabs(self) -> List[str]:
        """All CAB names, sorted (from the topology metadata)."""
        return sorted(self.meta["topology"]["cabs"])

    def hub_of(self, cab: str) -> str:
        """The HUB a CAB is attached to."""
        return self.meta["topology"]["cabs"][cab]

    def links(self) -> List[str]:
        """Inter-HUB links as sorted ``"hubA<->hubB"`` labels."""
        return list(self.meta["topology"]["links"])

    @property
    def fifo_capacity(self) -> int:
        return self.meta["topology"]["fifo_capacity"]

    @property
    def cadence_ns(self) -> int:
        return self.meta["cadence_ns"]


class FlightRecorder:
    """Samples a live system into a :class:`Journal` on a fixed cadence.

    Attach *before* the run starts; the sampling process takes a sample
    at t=0, then every ``cadence_ns`` up to and including ``horizon_ns``.
    The recorder also becomes the system tracer's sink so the journal's
    event log can be distilled from spans after the run.
    """

    def __init__(self, meta: dict, cadence_ns: int, horizon_ns: int):
        self.meta = dict(meta)
        self.meta["cadence_ns"] = cadence_ns
        self.meta["horizon_ns"] = horizon_ns
        self.cadence_ns = cadence_ns
        self.horizon_ns = horizon_ns
        self.samples: List[dict] = []
        self.recorder = TraceRecorder()
        self._system = None

    def attach(self, system) -> None:
        """Wire into a system: tracer sink plus the sampling process."""
        self._system = system
        system.tracer.sink = self.recorder
        system.sim.process(self._sample_loop(), name="ops-observer")

    # -- sampling ------------------------------------------------------------

    def _sample_loop(self) -> Generator:
        system = self._system
        while True:
            self._take_sample()
            if system.sim.now + self.cadence_ns > self.horizon_ns:
                return
            yield self.cadence_ns

    def _take_sample(self) -> None:
        system = self._system
        metrics: Dict[str, int] = {}

        def put(name: str, value: int) -> None:
            if value:
                metrics[name] = value

        visible = [name + scope for name in system.nodes for scope in NODE_SCOPES]
        for series, value in system.metrics.counters(*visible, *FABRIC_SCOPES).items():
            put(series, value)

        for name, node in system.nodes.items():
            for direction, port in (
                ("fiber-in", node.cab.fiber_in),
                ("fiber-out", node.cab.fiber_out),
            ):
                fifo = port.fifo
                put(f"{name}.fifo.{direction}.level", fifo.level)
                # Committed = buffered + reserved-by-back-pressure bytes:
                # capacity minus what a producer could be granted right
                # now.  This is the occupancy figure a real board exports.
                put(
                    f"{name}.fifo.{direction}.committed",
                    fifo.level + fifo.squeeze_reserve,
                )
            put(f"{name}.cpu.busy_ns", node.cab.cpu.busy_ns)

        self.samples.append({"time_ns": system.sim.now, "metrics": metrics})

    # -- harvest -------------------------------------------------------------

    def journal(self) -> Journal:
        """Distill the recording into a :class:`Journal` (call after the run)."""
        events, dropped = _slow_spans(self.recorder.events)
        return Journal(
            meta=self.meta,
            samples=list(self.samples),
            events=events,
            events_dropped=dropped,
        )


def _slow_spans(trace_events, slow_ns: int = SLOW_SPAN_NS, cap: int = MAX_EVENTS):
    """The synchronous spans at least ``slow_ns`` long, at most ``cap`` of
    them, plus how many more were dropped.

    Pairing is :func:`~repro.telemetry.perfetto.pair_spans`'s: unbalanced
    ends and spans still open at harvest are ignored — the event log is a
    best-effort operator view, not an invariant.
    """
    slow: List[dict] = []
    dropped = 0
    for begin, end_ns, track in pair_spans(trace_events):
        duration = end_ns - begin.time_ns
        if track is None or duration < slow_ns:
            continue
        if len(slow) >= cap:
            dropped += 1
            continue
        slow.append(
            {
                "time_ns": end_ns,
                "component": begin.component,
                "label": begin.label,
                "track": track,
                "duration_ns": duration,
            }
        )
    return slow, dropped
