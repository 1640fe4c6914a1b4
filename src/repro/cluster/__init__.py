"""Sharded parallel simulation for fleet-scale Nectar networks.

The paper's deployment stops at 2 HUBs and 26 hosts (Sec. 6); this package
scales the reproduction past a single core with a conservative parallel
discrete-event simulation (PDES) layer:

* :mod:`repro.cluster.fleet` — declarative fleet topologies (line / star /
  fat-tree of HUBs, N CABs each) and shard-aware system construction.
* :mod:`repro.cluster.partition` — cuts the wiring graph at inter-HUB
  links, mapping each HUB (and its CABs) to a shard.
* :mod:`repro.cluster.workload` — deterministic mixed RMP + RPC + TCP
  fleet traffic, generated from a seed.
* :mod:`repro.cluster.runner` — one shard's :class:`~repro.sim.core.Simulator`
  plus its boundary in/out queues; doubles as the worker-process body.
* :mod:`repro.cluster.conductor` — bounded-window barrier synchronization
  with deterministic cross-shard frame exchange; inline and multi-process
  execution modes.
* :mod:`repro.cluster.bench` — the ``scale`` scenario kind
  (``python -m repro bench scale``) behind ``BENCH_scale.json``;
  :mod:`repro.cluster.mcast` — the ``mcast`` kind behind
  ``BENCH_mcast.json``.

The correctness bar: a sharded run's protocol-level results are
bit-identical to the single-process reference on the same topology and
seed, no matter how many workers execute it (see docs/scaling.md).
"""

from repro.cluster.conductor import Conductor, FleetResult
from repro.cluster.fleet import FleetSpec, build_fleet_system, build_shard_system
from repro.cluster.partition import Partition, Partitioner
from repro.cluster.workload import WorkloadSpec

__all__ = [
    "Conductor",
    "FleetResult",
    "FleetSpec",
    "Partition",
    "Partitioner",
    "WorkloadSpec",
    "build_fleet_system",
    "build_shard_system",
]
