"""Tracing and instrumentation hooks.

The Figure 6 latency-breakdown experiment needs per-component timestamps for
a message as it moves host → CAB → network → CAB → host, and the telemetry
plane (:mod:`repro.telemetry`) needs *spans* — begin/end pairs with nesting —
to reconstruct where the microseconds go inside one CAB.  Rather than
sprinkling ad-hoc prints, every interesting layer emits records through a
shared :class:`Tracer`; a :class:`TraceRecorder` collects them, answers
interval queries, and feeds the Perfetto exporter.

Event phases follow the Chrome trace-event vocabulary:

* ``"I"`` — an instant (the original point events),
* ``"B"`` / ``"E"`` — begin/end of a synchronous span; spans on one *track*
  (a CAB thread, an interrupt context, a DMA engine) must nest like a call
  stack, which they do naturally because instrumentation follows the
  generator call structure,
* ``"b"`` / ``"e"`` — begin/end of an *async* span identified by ``span_id``
  (a frame in flight crosses threads, interrupts and CABs),
* ``"C"`` — a counter sample (FIFO level, heap bytes in use).

Emission costs **zero simulated time**: tracing never creates simulation
events, never charges CPU cycles, and therefore never perturbs event order
(the observer effect is exactly zero unless a cost is modelled explicitly).
When no sink is attached every hook is one attribute check.

Each :class:`~repro.sim.core.Simulator` owns one tracer (``sim.tracer``),
and every instrumented component takes it when built, so an observer
attaches to a whole simulation by setting a hook, never component by
component.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = ["TraceEvent", "TraceRecorder", "Tracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One trace record: what happened, where, and when (ns)."""

    time_ns: int
    component: str
    label: str
    detail: Any = None
    #: Chrome trace-event phase: "I", "B", "E", "b", "e", or "C".
    phase: str = "I"
    #: The execution lane this event belongs to (a thread, an interrupt
    #: context, a DMA engine, a link).  None means "use the component".
    track: Optional[str] = None
    #: Correlates async "b"/"e" pairs (e.g. a frame's seqno).
    span_id: Optional[int] = None


class Tracer:
    """The two observer hooks of one simulation: a trace sink and a profiler.

    By default both are off (``None``) and every instrumentation site costs
    one attribute check.  Attach a :class:`TraceRecorder` (or any callable)
    as ``sink`` to capture records, and a
    :class:`~repro.telemetry.profiler.CycleProfiler` as ``profiler`` to
    have the CPU and DMA engines charge their busy time to it.
    """

    def __init__(self, clock: Callable[[], int]):
        self._clock = clock
        self.sink: Optional[Callable[[TraceEvent], None]] = None
        #: Anything with ``account(cpu, category, name, ns)``.
        self.profiler: Any = None

    @property
    def enabled(self) -> bool:
        return self.sink is not None

    def emit(self, component: str, label: str, detail: Any = None) -> None:
        """Record one instant event if a sink is attached (cheap no-op otherwise)."""
        if self.sink is not None:
            self.sink(TraceEvent(self._clock(), component, label, detail))

    # -- spans ---------------------------------------------------------------

    def begin(
        self,
        component: str,
        label: str,
        detail: Any = None,
        track: Optional[str] = None,
    ) -> None:
        """Open a synchronous span on ``track`` (must nest like a stack)."""
        if self.sink is not None:
            self.sink(
                TraceEvent(self._clock(), component, label, detail, phase="B", track=track)
            )

    def end(
        self,
        component: str,
        label: str,
        detail: Any = None,
        track: Optional[str] = None,
    ) -> None:
        """Close the innermost open span on ``track``."""
        if self.sink is not None:
            self.sink(
                TraceEvent(self._clock(), component, label, detail, phase="E", track=track)
            )

    @contextmanager
    def span(
        self,
        component: str,
        label: str,
        detail: Any = None,
        track: Optional[str] = None,
    ):
        """``with tracer.span(...):`` sugar around begin/end.

        Safe inside thread-context generators: the span opens on entry and
        closes when the block is left, at whatever simulated time the thread
        has reached by then.
        """
        self.begin(component, label, detail, track=track)
        try:
            yield self
        finally:
            self.end(component, label, track=track)

    def async_begin(
        self, component: str, label: str, span_id: int, detail: Any = None
    ) -> None:
        """Open an async span (crosses threads/interrupts/CABs)."""
        if self.sink is not None:
            self.sink(
                TraceEvent(
                    self._clock(), component, label, detail, phase="b", span_id=span_id
                )
            )

    def async_end(
        self, component: str, label: str, span_id: int, detail: Any = None
    ) -> None:
        """Close the async span opened with the same (component, label, id)."""
        if self.sink is not None:
            self.sink(
                TraceEvent(
                    self._clock(), component, label, detail, phase="e", span_id=span_id
                )
            )

    def counter(
        self, component: str, label: str, value: int, track: Optional[str] = None
    ) -> None:
        """Sample a numeric counter (rendered as a counter track in Perfetto)."""
        if self.sink is not None:
            self.sink(
                TraceEvent(self._clock(), component, label, value, phase="C", track=track)
            )


@dataclass
class TraceRecorder:
    """Collects trace events and answers interval queries.

    Events are indexed by label as they arrive, so Figure-6 style
    ``find``/``interval_ns`` queries cost a dictionary lookup plus a scan of
    the (few) events sharing that label rather than an O(n) rescan of the
    whole run.
    """

    events: List[TraceEvent] = field(default_factory=list)
    _by_label: Dict[str, List[TraceEvent]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _indexed_upto: int = field(default=0, repr=False, compare=False)

    def __call__(self, event: TraceEvent) -> None:
        self.events.append(event)

    def clear(self) -> None:
        """Forget all recorded events."""
        self.events.clear()
        self._by_label.clear()
        self._indexed_upto = 0

    def _ensure_index(self) -> None:
        """Index any events appended since the last query (including events
        appended directly to :attr:`events` by tests)."""
        while self._indexed_upto < len(self.events):
            event = self.events[self._indexed_upto]
            self._by_label.setdefault(event.label, []).append(event)
            self._indexed_upto += 1

    def find(self, label: str, component: Optional[str] = None) -> TraceEvent:
        """First event with the given label (and component, if given)."""
        self._ensure_index()
        for event in self._by_label.get(label, ()):
            if component is None or event.component == component:
                return event
        if component is not None:
            raise KeyError(
                f"no trace event labelled {label!r} in component {component!r}"
            )
        raise KeyError(f"no trace event labelled {label!r}")

    def find_all(self, label: str, component: Optional[str] = None) -> List[TraceEvent]:
        """Every event with the given label (and component, if given), in order."""
        self._ensure_index()
        return [
            event
            for event in self._by_label.get(label, ())
            if component is None or event.component == component
        ]

    def interval_ns(
        self,
        start_label: str,
        end_label: str,
        component: Optional[str] = None,
        start_component: Optional[str] = None,
        end_component: Optional[str] = None,
    ) -> int:
        """Time between the first occurrences of two labels.

        ``component=`` filters both endpoints; ``start_component=`` /
        ``end_component=`` filter one endpoint each (they win over
        ``component`` for their side).
        """
        start = self.find(start_label, start_component or component)
        end = self.find(end_label, end_component or component)
        return end.time_ns - start.time_ns

    def labels(self) -> List[str]:
        """All recorded labels, in order."""
        return [event.label for event in self.events]

    def components(self) -> List[str]:
        """The distinct components seen, sorted."""
        return sorted({event.component for event in self.events})
