"""Byte-stable report rendering for scenario runs.

Two renderings, both deterministic functions of the report dict:

* :func:`render_json` — the canonical JSON every committed ``BENCH_*``
  baseline uses (sorted keys, two-space indent, trailing newline);
* :func:`render_text` — the human-facing report.  For sweeps this is the
  **capacity-curve table**: one row per sweep point, sweep keys first,
  then every scalar deterministic series (events, sim-time, p50/p99
  latency, throughput, copy/crossing counters — whatever the kind
  emits).  Only deterministic values are rendered, so the text of a
  double run is byte-identical.
"""

from __future__ import annotations

import json
from typing import List

from repro.bench.harness import format_table
from repro.scenario.model import Scenario

__all__ = ["render_json", "render_text"]


def render_json(report: dict) -> str:
    """Canonical serialization (sorted keys, fixed indent, newline)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _is_scalar(value) -> bool:
    return isinstance(value, (int, float, str, bool)) or value is None


def _scalar_columns(points: List[dict], exclude: List[str]) -> List[str]:
    """Sorted union of scalar series names across the sweep points."""
    names = set()
    for point in points:
        names.update(
            key
            for key, value in point.items()
            if key != "point" and key not in exclude and _is_scalar(value)
        )
    return sorted(names)


def _format_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _sweep_table(scenario: Scenario, report: dict) -> str:
    points = report["deterministic"]["points"]
    sweep_keys = sorted(scenario.sweep)
    columns = _scalar_columns(points, exclude=sweep_keys)
    headers = sweep_keys + columns
    rows = [
        [_format_cell(entry["point"].get(key)) for key in sweep_keys]
        + [_format_cell(entry.get(name)) for name in columns]
        for entry in points
    ]
    title = (
        f"capacity curve: {scenario.name} "
        f"(kind {scenario.kind}, {len(points)} points)"
    )
    return format_table(title, headers, rows)


def _single_report(scenario: Scenario, report: dict) -> str:
    deterministic = report["deterministic"]
    if isinstance(deterministic.get("text"), str):
        # Table/figure drivers already render their own report.
        return deterministic["text"].rstrip("\n") + "\n"
    if isinstance(deterministic.get("report"), str):
        # The chaos and observe report goldens are the report.
        return deterministic["report"].rstrip("\n") + "\n"
    if all(_is_scalar(value) for value in deterministic.values()):
        rows = [
            (key, _format_cell(deterministic[key]))
            for key in sorted(deterministic)
        ]
        title = f"scenario: {scenario.name} (kind {scenario.kind})"
        return format_table(title, ["series", "value"], rows) + "\n"
    # Nested legs (scale, buf, mcast): the canonical JSON is the report.
    return render_json(report)


def render_text(scenario: Scenario, report: dict) -> str:
    """The byte-stable text report (capacity curve for sweeps)."""
    if scenario.sweep:
        return _sweep_table(scenario, report) + "\n"
    return _single_report(scenario, report)
