"""The nectarflow runner: one project index, one pass, one report.

``analyze_paths`` is what ``python -m repro lint --static`` calls: parse
the tree once into a :class:`~repro.analysis.flow.callgraph.Project`,
run the NP30x FSM pass over it, and drop the findings a per-file
suppression pragma silences, exactly as the per-file linter does.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.analysis.flow.callgraph import Project
from repro.analysis.flow.fsm import FsmPass, StateMachine
from repro.analysis.rules import Finding, Suppressions, parse_suppressions

__all__ = ["analyze_paths", "extract_machines"]


def analyze_paths(paths: Iterable[str]) -> List[Finding]:
    """Build the project, run the FSM pass, apply per-file suppressions."""
    project = Project.load(list(paths))
    tables: Dict[str, Suppressions] = {}
    findings: List[Finding] = []
    for finding in FsmPass(project).run():
        table = tables.get(finding.path)
        if table is None:
            table = parse_suppressions(project.source_for(finding.path))
            tables[finding.path] = table
        if not table.active(finding.line, finding.code):
            findings.append(finding)
    return findings


def extract_machines(project: Project) -> List[StateMachine]:
    """The lifted FSMs (the ``flow --graph`` explainer's second half)."""
    return FsmPass(project).extract()
