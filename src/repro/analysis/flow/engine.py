"""The nectarflow driver: one project index, two passes, one report.

``analyze_paths`` is what ``python -m repro lint --static`` calls: parse
the tree once into a :class:`~repro.analysis.flow.callgraph.Project`,
run the ownership and FSM passes over the shared index, and apply the
same per-file suppression pragmas the per-file linter honors
(``# nectarlint: disable=NB210 -- why``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.analysis.flow.callgraph import Project
from repro.analysis.flow.fsm import FsmPass, StateMachine
from repro.analysis.flow.ownership import OwnershipPass
from repro.analysis.rules import Finding, Suppressions, parse_suppressions

__all__ = ["analyze_paths", "analyze_project", "extract_machines"]


def analyze_project(project: Project) -> List[Finding]:
    """Both whole-program passes over an already-built project."""
    findings: List[Finding] = []
    findings.extend(OwnershipPass(project).run())
    findings.extend(FsmPass(project).run())
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def analyze_paths(
    paths: Iterable[str],
) -> Tuple[Project, List[Finding], Dict[str, Suppressions]]:
    """Build the project, run the passes, apply per-file suppressions.

    Returns ``(project, findings, suppressions_by_path)`` — the
    suppression tables ride along so the CLI can report NL001
    (unjustified pragmas) under ``--strict``.
    """
    project = Project.load(list(paths))
    raw = analyze_project(project)
    tables: Dict[str, Suppressions] = {}
    findings: List[Finding] = []
    for finding in raw:
        table = tables.get(finding.path)
        if table is None:
            table = parse_suppressions(project.source_for(finding.path))
            tables[finding.path] = table
        if table.active(finding.line, finding.code):
            continue
        findings.append(finding)
    return project, findings, tables


def extract_machines(project: Project) -> List[StateMachine]:
    """The lifted FSMs (the ``flow --graph`` explainer's second half)."""
    return FsmPass(project).extract()
