"""Byte-stable report rendering for scenario runs.

Two renderings, both deterministic functions of the report dict:

* :func:`render_json` — the canonical JSON every committed ``BENCH_*``
  baseline uses (sorted keys, two-space indent, trailing newline);
* :func:`render_text` — the human-facing report.  A report whose
  ``deterministic`` section is a list of ``points`` (the ``load`` kind)
  renders as the **capacity-curve table**: one row per point, one column
  per series (users, events, sim-time, p50/p99 latency, throughput).
  Only deterministic values are rendered, so the text of a double run
  is byte-identical.
"""

from __future__ import annotations

import json

from repro.bench.harness import format_table

__all__ = ["render_json", "render_text"]


def render_json(report: dict) -> str:
    """Canonical serialization (sorted keys, fixed indent, newline)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _capacity_curve(kind, points: list) -> str:
    """One row per point; columns in the order the kind emits its series."""
    columns = list(points[0])
    rows = [[str(point[name]) for name in columns] for point in points]
    title = f"capacity curve: {kind.name} ({len(points)} points)"
    return format_table(title, columns, rows) + "\n"


def render_text(kind, report: dict) -> str:
    """The byte-stable text report of one run of ``kind``."""
    deterministic = report["deterministic"]
    if isinstance(deterministic.get("points"), list):
        return _capacity_curve(kind, deterministic["points"])
    if isinstance(deterministic.get("text"), str):
        # Table/figure drivers already render their own report.
        return deterministic["text"].rstrip("\n") + "\n"
    if isinstance(deterministic.get("report"), str):
        # The chaos and observe report goldens are the report.
        return deterministic["report"].rstrip("\n") + "\n"
    # Nested legs (scale, buf, mcast): the canonical JSON is the report.
    return render_json(report)
