"""The declarative scenario/benchmark harness behind ``python -m repro bench``.

Every benchmark in the tree — the paper tables and figures, the sharded
fleet bench, the zero-copy buffer bench, the multicast bench, the fault
campaigns, and the capacity-curve workloads — is described by one
**scenario file**: a small TOML document naming a *kind* (which
execution plane runs it), its parameters, an optional parameter
**sweep** grid, and the committed baseline it is gated against.  The harness supplies, uniformly:

* a validated schema with actionable file/line errors
  (:mod:`repro.scenario.config`, :mod:`repro.scenario.model`);
* a runner that executes any scenario through the existing
  system/cluster/faults planes (:mod:`repro.scenario.runner`);
* deterministic sweep expansion and byte-stable capacity-curve reports —
  events/sec, sim-time, p50/p99 latency, throughput, copy/crossing
  counters (:mod:`repro.scenario.sweep`, :mod:`repro.scenario.report`);
* one regression gate over every committed baseline
  (:mod:`repro.scenario.gate`): ``python -m repro bench <scenario>
  [--check | --write]`` and ``python -m repro bench --check-all``.

Committed scenarios live in ``scenarios/`` at the repository root; see
``docs/benchmarks.md`` for the format and the baseline-gating workflow.
"""

from repro.scenario.config import ConfigError, parse_config
from repro.scenario.model import Scenario, load_scenario, scenarios_dir

__all__ = [
    "ConfigError",
    "Scenario",
    "load_scenario",
    "parse_config",
    "scenarios_dir",
]
