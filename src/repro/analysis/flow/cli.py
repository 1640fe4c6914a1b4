"""``python -m repro flow`` — the nectarflow explainer.

``--graph`` dumps what the whole-program pass computed: the resolved
call graph (who can call whom, after name resolution) and every lifted
protocol state machine with its members, entry/test coverage marks, and
guarded transition edges.  This is the human-readable side of the same
project index ``python -m repro lint --static`` checks against — when a
finding looks surprising, the dump shows the analysis's view of the
code.
"""

from __future__ import annotations

import os
import sys
from typing import List

__all__ = ["main"]

_USAGE = (
    "usage: python -m repro flow --graph [paths...]\n"
    "       (default path: src/repro)"
)


def main(argv: List[str]) -> int:
    """CLI entry: ``python -m repro flow --graph [paths...]``."""
    paths: List[str] = []
    graph = False
    arguments = list(argv)
    while arguments:
        arg = arguments.pop(0)
        if arg == "--graph":
            graph = True
        elif arg.startswith("-"):
            print(f"unknown option {arg!r}", file=sys.stderr)
            print(_USAGE, file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    if not graph:
        print(_USAGE, file=sys.stderr)
        return 2
    if not paths:
        if os.path.isdir(os.path.join("src", "repro")):
            paths = [os.path.join("src", "repro")]
        else:
            print("no paths given and src/repro not found", file=sys.stderr)
            return 2
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        for path in missing:
            print(f"no such file or directory: {path}", file=sys.stderr)
        return 2
    from repro.analysis.flow import extract_machines
    from repro.analysis.flow.callgraph import Project

    project = Project.load(paths)
    print("# call graph (resolved; conservative name resolution)")
    rendered = project.render_graph()
    if rendered:
        print(rendered)
    print()
    print("# state machines (lifted from transition code)")
    machines = extract_machines(project)
    if not machines:
        print("(none found)")
    for machine in machines:
        print(machine.render())
        print()
    return 0
