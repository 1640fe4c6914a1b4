"""The scenario/benchmark harness behind ``python -m repro bench``.

Every benchmark in the tree — the paper tables and figures, the sharded
fleet bench, the zero-copy buffer bench, the multicast bench, the fault
campaigns, the observe workloads and the capacity-curve workload — is one
**kind** in the registry :data:`repro.scenario.runner.KINDS`.  A kind
declares its committed baseline, its parameter schema and defaults, its
runner and the invariants every fresh report must hold.  The harness
supplies, uniformly:

* typed ``key=value`` overrides with positioned errors
  (:mod:`repro.scenario.model`);
* byte-stable reports, the capacity curve among them
  (:mod:`repro.scenario.report`);
* one regression gate over every committed baseline
  (:mod:`repro.scenario.gate`): ``python -m repro bench <kind>
  [--check | --write]`` and ``python -m repro bench --check-all``.

See ``docs/benchmarks.md`` for the registry and the baseline-gating
workflow.
"""

from repro.scenario.model import ConfigError, apply_overrides

__all__ = ["ConfigError", "apply_overrides"]
