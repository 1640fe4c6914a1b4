"""Experiment drivers that regenerate every table and figure of the paper.

Every driver module is its ``DEFAULTS``, its cell functions and one
entry point: ``scenario(params) -> DriverResult`` runs it with the given
(partial) parameter overrides.  The scenario harness (:mod:`repro.scenario`)
consumes this uniformly, so tables and figures are ordinary scenarios and
``python -m repro bench <name>`` is the one way to run them.

``DriverResult`` carries the resolved configuration and the deterministic
rows and extras (plain dicts, canonical-JSON-serializable).  A driver
renders nothing: :func:`repro.bench.experiments.render_table` is the one
rendering of every paper table, the one ``bench <name>`` prints and
EXPERIMENTS.md shows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

__all__ = ["DriverResult", "resolve_params"]


@dataclass(frozen=True)
class DriverResult:
    """The common result contract of every ``repro.bench`` driver.

    ``rows`` and ``extras`` hold only JSON-serializable deterministic
    values.
    """

    name: str
    config: Dict[str, object]
    rows: List[dict]
    extras: Dict[str, object] = field(default_factory=dict)


def resolve_params(
    defaults: Mapping[str, object], params: Optional[Mapping[str, object]]
) -> Dict[str, object]:
    """Overlay ``params`` onto a driver's defaults; reject unknown keys."""
    config = dict(defaults)
    for key, value in (params or {}).items():
        if key not in config:
            known = ", ".join(sorted(config)) or "(none)"
            raise KeyError(f"unknown parameter {key!r}; known: {known}")
        config[key] = value
    return config
