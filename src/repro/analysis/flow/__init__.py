"""nectarflow: whole-program static verification for the CAB reproduction.

One interprocedural pass over a shared project index (the call graph),
proving over every path what a run only shows on the paths it executes:

* :mod:`repro.analysis.flow.fsm` — NP30x: protocol state machines lifted
  from transition code (enum- and constant-style), checked for
  unreachable states, dead-end states, and waits with no timeout cover.

``python -m repro lint --static`` runs it; a finding is fixed or carries
a justified suppression pragma.  ``python -m repro flow --graph`` dumps
the call graph and extracted FSMs for humans.  Buffer ownership is
checked at run time, not here: a double release or a use after release
raises :class:`~repro.errors.BufError`, and a leak fails the
zero-live-buffer invariant.
"""

from repro.analysis.flow.callgraph import FunctionInfo, Project
from repro.analysis.flow.engine import analyze_paths, extract_machines

__all__ = [
    "FunctionInfo",
    "Project",
    "analyze_paths",
    "extract_machines",
]
