"""The one regression gate: a structural differ over every baseline.

``python -m repro bench <scenario> --check`` re-runs the scenario with
its committed configuration and asks two questions, the same way for
every kind:

* **did it move?** — :func:`diff_reports` walks ``config`` + ``deterministic`` of
  the committed baseline and the fresh report together and returns one
  key-path verdict per leaf that differs
  (``deterministic.workers.4.barriers: 1145 -> 1200 (+55)``), per key the
  fresh report dropped and per key it grew.  A text golden
  (``CHAOS_baseline.txt``) is the ``deterministic.report`` leaf of the same
  walk.  The match is exact: an improvement is re-baselined with
  ``--write`` like any other deliberate change.
* **is it sound?** — :func:`invariant_verdicts` applies the kind's
  declared invariants (:mod:`repro.scenario.runner`) to the fresh report,
  every sweep point included.  These hold of any run, so a plain
  ``bench <scenario>`` exits non-zero on them too.

``--check-all`` gates every committed scenario that names a baseline —
the single tier-1 entry point.  One broken baseline file is that
scenario's FAIL, not the end of the run.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import List, Optional

from repro.scenario.model import (
    Scenario,
    list_scenarios,
    load_scenario,
    repo_root,
)
from repro.scenario.report import render_json
from repro.scenario.runner import KINDS, violations
from repro.scenario.sweep import run_scenario

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
    """One scenario's gate outcome: report, verdicts, summary detail."""

    scenario: Scenario
    report: dict
    errors: List[str] = field(default_factory=list)
    baseline: Optional[pathlib.Path] = None

    @property
    def ok(self) -> bool:
        """True when every verdict came back clean."""
        return not self.errors

    def detail(self) -> str:
        """The kind's one-line summary of the fresh report."""
        if self.scenario.sweep:
            points = self.report["deterministic"]["points"]
            return f"{len(points)} sweep points"
        return KINDS[self.scenario.kind].summarize(self.report)

    def verdict_lines(self) -> List[str]:
        """Printable verdicts: one OK line, or one FAIL line per key."""
        name = self.baseline.name if self.baseline else self.scenario.name
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


def invariant_verdicts(scenario: Scenario, report: dict) -> List[str]:
    """The kind's invariants applied to a fresh report (each sweep point)."""
    kind = KINDS[scenario.kind]
    deterministic = report["deterministic"]
    if not scenario.sweep:
        return violations(kind, deterministic, "deterministic")
    return [
        verdict
        for index, point in enumerate(deterministic["points"])
        for verdict in violations(kind, point, f"deterministic.points[{index}]")
    ]


def baseline_path(scenario: Scenario) -> Optional[pathlib.Path]:
    """The scenario's committed baseline file (repo-root-relative)."""
    if scenario.baseline is None:
        return None
    return repo_root() / scenario.baseline


def run_gate(scenario: Scenario) -> GateResult:
    """Run the scenario and gate it against its committed baseline."""
    path = baseline_path(scenario)
    if path is None:
        return GateResult(
            scenario,
            {},
            errors=[
                "the scenario names no baseline; add 'baseline = \"...\"' "
                "under [scenario] and --write it"
            ],
        )
    if not path.exists():
        return GateResult(
            scenario,
            {},
            errors=["no such committed baseline; create it with --write"],
            baseline=path,
        )
    text = path.read_text()
    committed = None
    if path.suffix == ".json":
        try:
            committed = json.loads(text)
        except json.JSONDecodeError as error:
            return GateResult(
                scenario,
                {},
                errors=[f"not valid JSON (line {error.lineno})"],
                baseline=path,
            )
    report = run_scenario(scenario)
    # Compare JSON value to JSON value (tuples are lists, keys are strings).
    fresh = json.loads(render_json({key: report[key] for key in GATED}))
    if committed is None:
        # A text golden pins one leaf: the rendered report.
        committed = dict(
            fresh, deterministic=dict(fresh["deterministic"], report=text)
        )
    errors = diff_reports(committed, fresh) + invariant_verdicts(scenario, report)
    return GateResult(scenario, report, errors=errors, baseline=path)


def write_baseline(scenario: Scenario) -> GateResult:
    """Run the scenario and (re)write the baseline file it names.

    A report that breaks its kind's invariants is not written: it could
    never pass the gate it would become.
    """
    path = baseline_path(scenario)
    report = run_scenario(scenario)
    errors = invariant_verdicts(scenario, report)
    if not errors:
        if path.suffix == ".json":
            path.write_text(render_json(report))
        else:
            path.write_text(report["deterministic"]["report"])
    return GateResult(scenario, report, errors=errors, baseline=path)


def check_all() -> List[GateResult]:
    """Gate every committed scenario that names a baseline, sorted by name."""
    results: List[GateResult] = []
    for name in list_scenarios():
        scenario = load_scenario(name)
        if scenario.baseline is not None:
            results.append(run_gate(scenario))
    return results
