"""Merging per-shard telemetry into one fleet-wide view.

Each shard ships a snapshot of its system's metrics store and its
:class:`~repro.telemetry.session.Telemetry` trace — a series dict and a
Chrome-trace event list — as plain JSON-shaped data that crosses the
worker pipe untouched.  The merge is deterministic: series collide only
for fleet-global scopes (``net.*``, ``host.*``, ``fault.*``, ``sim.*``,
``span.*``, ``cycles.*``) and are combined by fixed rules (counters and
histograms add — a histogram's bucket bounds must agree and carry through
— gauges take the max, so ``sim.elapsed_ns`` reads as fleet completion
time), while trace tracks are namespaced by
shard so two shards' process ids never alias.
"""

from __future__ import annotations

import json
from typing import Dict, List

__all__ = [
    "merge_metrics",
    "merge_traces",
    "merged_metrics_json",
    "merged_trace_json",
    "shard_telemetry",
]

#: Per-shard pid namespace width in merged traces (shard i owns
#: [i * stride, (i+1) * stride)).
_PID_STRIDE = 10000


def shard_telemetry(system) -> dict:
    """One system's metrics snapshot and trace as plain, pipe-safe data."""
    telemetry = system.telemetry
    trace = json.loads(telemetry.export_trace())
    return {
        "metrics": telemetry.collect().snapshot(),
        "trace": trace.get("traceEvents", []),
    }


def _merge_values(name: str, kind: str, left, right):
    if kind == "counter":
        return left + right
    if kind == "gauge":
        return max(left, right)
    if kind == "histogram":
        if left["bounds"] != right["bounds"]:
            raise ValueError(
                f"series {name}: histogram bounds mismatch "
                f"({left['bounds']} vs {right['bounds']})"
            )
        return {
            "bounds": left["bounds"],
            "counts": [a + b for a, b in zip(left["counts"], right["counts"])],
            "overflow": left["overflow"] + right["overflow"],
            "sum": left["sum"] + right["sum"],
            "count": left["count"] + right["count"],
        }
    raise ValueError(f"series {name}: unknown metric kind {kind!r}")


def merge_metrics(snapshots: List[Dict[str, dict]]) -> Dict[str, dict]:
    """Union per-shard series snapshots under the fixed collision rules."""
    merged: Dict[str, dict] = {}
    for snapshot in snapshots:
        for name, series in snapshot.items():
            existing = merged.get(name)
            if existing is None:
                merged[name] = {"type": series["type"], "value": series["value"]}
            else:
                if existing["type"] != series["type"]:
                    raise ValueError(
                        f"series {name}: kind mismatch "
                        f"({existing['type']} vs {series['type']})"
                    )
                existing["value"] = _merge_values(
                    name, series["type"], existing["value"], series["value"]
                )
    return dict(sorted(merged.items()))


def merge_traces(traces: List[List[dict]]) -> List[dict]:
    """Concatenate per-shard Chrome-trace events into one timeline.

    Each shard's pids move into their own namespace, then events sort by
    timestamp (with the record shape as tie-break) so the output is a
    deterministic function of the inputs, not of arrival order.
    """
    merged: List[dict] = []
    for shard_id, events in enumerate(traces):
        base = shard_id * _PID_STRIDE
        for event in events:
            record = dict(event)
            if "pid" in record:
                record["pid"] = base + record["pid"]
            merged.append(record)
    merged.sort(
        key=lambda r: (
            r.get("ts", 0.0),
            r.get("pid", 0),
            r.get("tid", 0),
            r.get("ph", ""),
            r.get("name", ""),
        )
    )
    return merged


def merged_metrics_json(snapshots: List[Dict[str, dict]]) -> str:
    """Byte-stable JSON exposition of the merged metrics."""
    return json.dumps(
        {"series": merge_metrics(snapshots)},
        sort_keys=True,
        separators=(",", ":"),
    )


def merged_trace_json(traces: List[List[dict]]) -> str:
    """Byte-stable Chrome-trace JSON of the merged timeline."""
    return json.dumps(
        {"displayTimeUnit": "ns", "traceEvents": merge_traces(traces)},
        sort_keys=True,
        separators=(",", ":"),
    )
