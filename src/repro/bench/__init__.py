"""Experiment drivers that regenerate every table and figure of the paper.

Every driver module exposes the same result contract:
``scenario(params) -> DriverResult`` runs it with the given (partial)
parameter overrides.  The scenario harness (:mod:`repro.scenario`)
consumes this uniformly, so tables and figures are ordinary scenarios and
``python -m repro bench <name>`` is the one way to run them.

``DriverResult`` carries the resolved configuration, the deterministic
rows (plain dicts, canonical-JSON-serializable), and the rendered text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.bench.harness import format_table, two_hosted_nodes, two_nodes

__all__ = [
    "DriverResult",
    "format_table",
    "resolve_params",
    "two_hosted_nodes",
    "two_nodes",
]


@dataclass(frozen=True)
class DriverResult:
    """The common result contract of every ``repro.bench`` driver.

    ``rows`` and ``extras`` hold only JSON-serializable deterministic
    values; ``text`` is the byte-stable rendered report.
    """

    name: str
    config: Dict[str, object]
    rows: List[dict]
    text: str
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
