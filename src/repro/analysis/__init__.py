"""Static correctness tooling for the CAB runtime reproduction.

* :mod:`repro.analysis.nectarlint` — an AST-based per-file linter that
  flags determinism hazards (wall clocks, unseeded RNGs, set iteration,
  float cost arithmetic), simulated-concurrency hazards (discarded
  thread-context generators, blocking calls from interrupt-handler context,
  yields of non-event values) and payload copies on the data path.
  ``python -m repro lint``.
* :mod:`repro.analysis.fsm` — the NP30x protocol state-machine pass that
  ``lint --static`` runs over the files ``lint`` has already parsed.

Run-time checks are not here: the runtime itself raises on a
use-after-free view or a double release (:class:`~repro.errors.BufError`),
a bad heap free or a mutex relock (:class:`~repro.errors.NectarError`) in
every run, and buffer ownership is checked only there.
"""

from repro.analysis.rules import Finding, Rule, all_rules, get_rule

__all__ = [
    "Finding",
    "Rule",
    "all_rules",
    "get_rule",
]
