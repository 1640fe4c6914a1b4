"""nectarflow: whole-program static verification for the CAB reproduction.

Two interprocedural passes over one shared project index (call graph +
per-function CFG/dataflow core), proving over every path what a run only
shows on the paths it executes:

* :mod:`repro.analysis.flow.ownership` — NB21x: PacketBuffer/BufView
  ownership (static leaks, double-releases, use-after-release) on the
  zero-copy buffer plane.
* :mod:`repro.analysis.flow.fsm` — NP30x: protocol state machines lifted
  from transition code (enum- and constant-style), checked for
  unreachable states, dead-end states, and waits with no timeout cover.

``python -m repro lint --static`` runs both; a finding is fixed or carries
a justified suppression pragma.  ``python -m repro flow --graph`` dumps
the call graph and extracted FSMs for humans.
"""

from repro.analysis.flow.callgraph import FunctionInfo, Project
from repro.analysis.flow.engine import (
    analyze_paths,
    analyze_project,
    extract_machines,
)

__all__ = [
    "FunctionInfo",
    "Project",
    "analyze_paths",
    "analyze_project",
    "extract_machines",
]
