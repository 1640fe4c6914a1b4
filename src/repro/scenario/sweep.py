"""Deterministic sweep expansion and scenario execution.

:func:`expand` turns a scenario's ``[sweep]`` grid into an explicit,
deterministic run matrix: sweep keys in sorted order, values in the order
the scenario file lists them, row-major cartesian product.  Expanding the
same scenario twice yields the identical matrix — the property
``tests/test_scenario_config.py`` pins.

:func:`run_scenario` executes the matrix through the scenario's kind
(:mod:`repro.scenario.runner`).  A scenario without a sweep returns the
kind's native report unchanged; a sweep returns one assembled report whose ``deterministic``
section is the list of per-point deterministic sections — the capacity
curve.
"""

from __future__ import annotations

from typing import Dict, List

from repro.scenario.model import Scenario
from repro.scenario.runner import KINDS

__all__ = ["expand", "run_scenario"]


def expand(scenario: Scenario) -> List[Dict[str, object]]:
    """The explicit run matrix: one param-override dict per sweep point."""
    points: List[Dict[str, object]] = [{}]
    for key in sorted(scenario.sweep):
        points = [
            dict(point, **{key: value})
            for point in points
            for value in scenario.sweep[key]
        ]
    return points


def run_scenario(scenario: Scenario) -> dict:
    """Execute the scenario; returns its (single or sweep) report dict."""
    kind = KINDS[scenario.kind]
    if not scenario.sweep:
        return kind.run(dict(scenario.params))
    runs = []
    for point in expand(scenario):
        params = dict(scenario.params)
        params.update(point)
        runs.append((point, kind.run(params)))
    return {
        "bench": scenario.kind,
        "scenario": scenario.name,
        "config": {
            "params": {
                key: scenario.params[key] for key in sorted(scenario.params)
            },
            "sweep": {
                key: list(scenario.sweep[key]) for key in sorted(scenario.sweep)
            },
        },
        "deterministic": {
            "points": [
                dict({"point": point}, **run["deterministic"])
                for point, run in runs
            ]
        },
    }
