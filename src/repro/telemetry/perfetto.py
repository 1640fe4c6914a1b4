"""Deterministic Chrome trace-event / Perfetto JSON export.

Converts a recorded list of :class:`~repro.sim.trace.TraceEvent` objects
into the Chrome trace-event JSON format, which https://ui.perfetto.dev
(and ``chrome://tracing``) load directly.

Mapping:

* every *track* (a CAB thread, an interrupt context, a DMA engine, a link)
  becomes a thread row (``tid``) inside a process row (``pid``) named after
  the track's group — the text before the first ``/`` (``cab-a.cpu/thread:x``
  groups under ``cab-a.cpu``);
* ``B``/``E`` span events become nested slices on their track;
* ``b``/``e`` async spans (frames in flight) become async slices correlated
  by id;
* ``C`` events become counter tracks;
* ``I`` instants become thread-scoped instant markers.

Determinism: pids, tids and async ids are assigned densely in order of
first appearance, never from object identities or global counters, so the
same simulated run always serializes to the same bytes — including when the
run is repeated inside one Python process (frame sequence numbers come from
a process-global counter and are normalized away here).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.sim.trace import TraceEvent

__all__ = ["export_chrome_trace", "match_spans", "pair_spans"]


def _json_safe(value: Any) -> Any:
    """Clamp arbitrary detail payloads to JSON-serializable values."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return repr(value)


def _args_for(event: TraceEvent) -> Dict[str, Any]:
    detail = event.detail
    if detail is None:
        return {}
    if isinstance(detail, dict):
        return {str(key): _json_safe(value) for key, value in sorted(detail.items())}
    return {"detail": _json_safe(detail)}


class _TrackTable:
    """Dense pid/tid assignment by first appearance."""

    def __init__(self):
        self._pids: Dict[str, int] = {}
        self._tids: Dict[str, Tuple[int, int]] = {}

    def ids_for(self, track: str) -> Tuple[int, int]:
        if track in self._tids:
            return self._tids[track]
        group = track.split("/", 1)[0]
        pid = self._pids.setdefault(group, len(self._pids) + 1)
        tid = len(self._tids) + 1
        self._tids[track] = (pid, tid)
        return pid, tid

    def metadata(self) -> List[dict]:
        records: List[dict] = []
        for group, pid in self._pids.items():
            records.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": group},
                }
            )
        for track, (pid, tid) in self._tids.items():
            lane = track.split("/", 1)[1] if "/" in track else track
            records.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": lane},
                }
            )
        return records


def export_chrome_trace(events: Iterable[TraceEvent]) -> str:
    """Serialize recorded events as byte-stable Chrome trace JSON."""
    tracks = _TrackTable()
    async_ids: Dict[Tuple[str, str, Any], int] = {}
    trace_events: List[dict] = []

    for event in events:
        track = event.track if event.track is not None else event.component
        pid, tid = tracks.ids_for(track)
        ts = event.time_ns / 1000.0  # Chrome trace ts is microseconds
        if event.phase in ("B", "E"):
            record = {
                "ph": event.phase,
                "name": event.label,
                "cat": event.component,
                "ts": ts,
                "pid": pid,
                "tid": tid,
            }
            if event.phase == "B":
                args = _args_for(event)
                if args:
                    record["args"] = args
        elif event.phase in ("b", "e"):
            key = (event.component, event.label, event.span_id)
            span_id = async_ids.setdefault(key, len(async_ids) + 1)
            record = {
                "ph": event.phase,
                "name": event.label,
                "cat": event.component,
                "id": span_id,
                "ts": ts,
                "pid": pid,
                "tid": tid,
            }
            if event.phase == "b":
                args = _args_for(event)
                if args:
                    record["args"] = args
        elif event.phase == "C":
            record = {
                "ph": "C",
                "name": f"{event.component}.{event.label}",
                "ts": ts,
                "pid": pid,
                "tid": tid,
                "args": {event.label: _json_safe(event.detail)},
            }
        else:  # instant
            record = {
                "ph": "i",
                "s": "t",
                "name": event.label,
                "cat": event.component,
                "ts": ts,
                "pid": pid,
                "tid": tid,
            }
            args = _args_for(event)
            if args:
                record["args"] = args
        trace_events.append(record)

    payload = {
        "displayTimeUnit": "ns",
        "traceEvents": tracks.metadata() + trace_events,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def pair_spans(
    events: Iterable[TraceEvent],
) -> Iterator[Tuple[TraceEvent, int, Optional[str]]]:
    """Pair span begin/end events, yielding ``(begin, end_ns, track)``.

    Synchronous ``B``/``E`` pairs are matched per track with stack
    discipline (``track`` is the track, else the component); async
    ``b``/``e`` pairs are matched by (component, label, span_id) and yield
    ``track=None``.  Unbalanced events (spans still open at the end of the
    run, ends with nothing open) are ignored.  Pairs come out in the order
    the spans *closed*, which is deterministic for a deterministic run.
    """
    stacks: Dict[str, List[TraceEvent]] = {}
    open_async: Dict[Tuple[str, str, Any], TraceEvent] = {}

    for event in events:
        if event.phase == "B":
            track = event.track if event.track is not None else event.component
            stacks.setdefault(track, []).append(event)
        elif event.phase == "E":
            track = event.track if event.track is not None else event.component
            stack = stacks.get(track)
            if stack:
                yield stack.pop(), event.time_ns, track
        elif event.phase == "b":
            open_async.setdefault((event.component, event.label, event.span_id), event)
        elif event.phase == "e":
            begin = open_async.pop((event.component, event.label, event.span_id), None)
            if begin is not None:
                yield begin, event.time_ns, None


def match_spans(events: Iterable[TraceEvent]) -> List[Tuple[str, str, int]]:
    """Every closed span as ``(component, label, duration_ns)``, in
    :func:`pair_spans` order."""
    return [
        (begin.component, begin.label, end_ns - begin.time_ns)
        for begin, end_ns, _track in pair_spans(events)
    ]
