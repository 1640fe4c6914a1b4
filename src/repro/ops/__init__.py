"""repro.ops: the scored operations lab over the telemetry stack.

The packages below this one *build* the system; this package practices
*operating* it.  Its incidents are the cases of the fault catalogue
(:mod:`repro.faults.catalogue`) that carry ground-truth labels:
reproducible production-style problems (a flapping CAB, a lossy
inter-HUB fiber, a FIFO overload cascade, ...), each with a seeded fault
plan and pinned flows.  An
:mod:`~repro.ops.observer` flight recorder samples the live system at a
fixed simulated-time cadence into a byte-stable journal — the *only*
evidence the operator side may read.  :mod:`~repro.ops.detect` holds the
baseline detectors and localizers that consume the journal, and
:mod:`~repro.ops.lab` runs incidents end to end, scores
detect/localize/mitigate against the ground truth, and renders the
deterministic report that ``python -m repro bench ops`` gates on
(``bench ops incident=NAME`` runs one incident and keeps its journal).
"""

from repro.ops.lab import run_incident, run_lab
from repro.ops.observer import FlightRecorder, Journal

__all__ = [
    "FlightRecorder",
    "Journal",
    "run_incident",
    "run_lab",
]
