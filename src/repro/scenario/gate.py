"""The one regression gate: a structural differ over every baseline.

``python -m repro bench <kind> --check`` re-runs the kind with its
committed configuration and asks two questions, the same way for every
kind:

* **did it move?** — :func:`diff_reports` walks ``config`` + ``deterministic`` of
  the committed baseline and the fresh report together and returns one
  key-path verdict per leaf that differs
  (``deterministic.workers.4.barriers: 1145 -> 1200 (+55)``), per key the
  fresh report dropped and per key it grew.  A text golden
  (``CHAOS_baseline.txt``) is the ``deterministic.report`` leaf of the same
  walk.  The match is exact: an improvement is re-baselined with
  ``--write`` like any other deliberate change.
* **is it sound?** — :func:`invariant_verdicts` applies the kind's
  declared invariants (:mod:`repro.scenario.runner`) to the fresh report.
  These hold of any run, so a plain ``bench <kind>`` exits non-zero on
  them too.

``--check-all`` gates every kind in :data:`~repro.scenario.runner.KINDS`
against the baseline it names — the single tier-1 entry point.  One
broken baseline file is that kind's FAIL, not the end of the run.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import List

from repro.scenario.model import repo_root
from repro.scenario.report import render_json
from repro.scenario.runner import KINDS, Kind, violations

__all__ = [
    "GateResult",
    "baseline_path",
    "check_all",
    "diff_reports",
    "invariant_verdicts",
    "run_gate",
    "write_baseline",
]

#: The report sections a baseline pins.
GATED = ("config", "deterministic")


@dataclass
class GateResult:
    """One kind's gate outcome: report, verdicts, summary detail."""

    kind: Kind
    report: dict
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every verdict came back clean."""
        return not self.errors

    def detail(self) -> str:
        """The kind's one-line summary of the fresh report."""
        return self.kind.summarize(self.report)

    def verdict_lines(self) -> List[str]:
        """Printable verdicts: one OK line, or one FAIL line per key."""
        name = self.kind.baseline
        if self.ok:
            return [f"OK: {name} deterministic section holds ({self.detail()})"]
        return [f"FAIL: {name}: {error}" for error in self.errors]


def _moved(committed, fresh) -> str:
    """``old -> new`` for one leaf: with the delta, or the first changed line."""
    if isinstance(committed, str) and isinstance(fresh, str):
        if "\n" in committed + fresh:
            pairs = zip_longest(committed.splitlines(), fresh.splitlines())
            for number, (old, new) in enumerate(pairs, start=1):
                if old != new:
                    return f"line {number}: {old!r} -> {new!r}"
    elif not isinstance(committed, bool) and not isinstance(fresh, bool):
        if isinstance(committed, (int, float)) and isinstance(fresh, (int, float)):
            return f"{committed!r} -> {fresh!r} ({fresh - committed:+g})"
    return f"{committed!r} -> {fresh!r}"


def _diff(committed, fresh, path: str) -> List[str]:
    """Key-path verdicts for every way ``fresh`` differs from ``committed``.

    Both sides are JSON values.  Dicts are walked by key and lists by
    index, so a verdict names the leaf that moved; a key on one side only
    is named as missing or extra rather than compared.
    """
    if isinstance(committed, dict) and isinstance(fresh, dict):
        verdicts: List[str] = []
        for key in sorted(set(committed) | set(fresh)):
            where = f"{path}.{key}"
            if key not in fresh:
                verdicts.append(f"{where}: missing from the fresh report")
            elif key not in committed:
                verdicts.append(f"{where}: not in the committed baseline")
            else:
                verdicts.extend(_diff(committed[key], fresh[key], where))
        return verdicts
    if isinstance(committed, list) and isinstance(fresh, list):
        verdicts = []
        for index in range(max(len(committed), len(fresh))):
            where = f"{path}[{index}]"
            if index >= len(fresh):
                verdicts.append(f"{where}: missing from the fresh report")
            elif index >= len(committed):
                verdicts.append(f"{where}: not in the committed baseline")
            else:
                verdicts.extend(_diff(committed[index], fresh[index], where))
        return verdicts
    if committed != fresh or type(committed) is not type(fresh):
        return [f"{path}: {_moved(committed, fresh)}"]
    return []


def diff_reports(committed: dict, fresh: dict) -> List[str]:
    """Key-path verdicts over the gated sections of two reports.

    A moved ``config`` is reported alone: the deterministic sections of
    two different configurations are not comparable.
    """
    if not isinstance(committed, dict):
        return ["not a report object"]
    for section in GATED:
        verdicts = _diff(committed.get(section), fresh[section], section)
        if verdicts:
            return verdicts
    return []


def invariant_verdicts(kind: Kind, report: dict) -> List[str]:
    """The kind's invariants applied to a fresh report."""
    return violations(kind, report["deterministic"], "deterministic")


def baseline_path(kind: Kind) -> pathlib.Path:
    """The kind's committed baseline file."""
    return repo_root() / kind.baseline


def run_gate(kind: Kind) -> GateResult:
    """Run the kind's committed configuration and gate it against its baseline."""
    path = baseline_path(kind)
    if not path.exists():
        return GateResult(
            kind, {}, errors=["no such committed baseline; create it with --write"]
        )
    text = path.read_text()
    committed = None
    if path.suffix == ".json":
        try:
            committed = json.loads(text)
        except json.JSONDecodeError as error:
            return GateResult(
                kind, {}, errors=[f"not valid JSON (line {error.lineno})"]
            )
    report = kind.run(kind.defaults())
    # Compare JSON value to JSON value (tuples are lists, keys are strings).
    fresh = json.loads(render_json({key: report[key] for key in GATED}))
    if committed is None:
        # A text golden pins one leaf: the rendered report.
        committed = dict(
            fresh, deterministic=dict(fresh["deterministic"], report=text)
        )
    errors = diff_reports(committed, fresh) + invariant_verdicts(kind, report)
    return GateResult(kind, report, errors=errors)


def write_baseline(kind: Kind) -> GateResult:
    """Run the kind's committed configuration and (re)write its baseline.

    A report that breaks its kind's invariants is not written: it could
    never pass the gate it would become.
    """
    path = baseline_path(kind)
    report = kind.run(kind.defaults())
    errors = invariant_verdicts(kind, report)
    if not errors:
        if path.suffix == ".json":
            path.write_text(render_json(report))
        else:
            path.write_text(report["deterministic"]["report"])
    return GateResult(kind, report, errors=errors)


def check_all() -> List[GateResult]:
    """Gate every kind against its committed baseline, sorted by name."""
    return [run_gate(KINDS[name]) for name in sorted(KINDS)]
