"""``python -m repro bench`` — the one way to run or gate a scenario kind.

Usage::

    python -m repro bench --list                    # every kind + baseline
    python -m repro bench <kind> [key=value ...] [--json FILE]
    python -m repro bench <kind> --check            # gate vs its baseline
    python -m repro bench <kind> --write            # refresh its baseline
    python -m repro bench --check-all               # every committed gate

``<kind>`` names an entry of :data:`~repro.scenario.runner.KINDS`.
``key=value`` overrides one of the kind's parameters for this run
(``bench scale hubs=8 workers=1,2``, ``bench chaos scenario=cab-blackout``,
``bench load users=3``); overrides are typed by the kind's schema
(:mod:`repro.scenario.model`) and are refused with ``--check``/``--write``,
which judge and record the committed configuration only.  Exit status:
0 on success/clean gate, 1 on a regression or a report that breaks its
kind's invariants, 2 on usage errors.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.scenario.gate import (
    baseline_path,
    check_all,
    invariant_verdicts,
    run_gate,
    write_baseline,
)
from repro.scenario.model import ConfigError, apply_overrides
from repro.scenario.report import render_json, render_text
from repro.scenario.runner import KINDS, Kind

__all__ = ["main"]

USAGE = (
    "usage: python -m repro bench <scenario> [key=value ...] [--json FILE]\n"
    "       python -m repro bench <scenario> --check | --write\n"
    "       python -m repro bench --list | --check-all"
)


def _print_available(stream) -> None:
    print("available scenarios:", file=stream)
    for name in sorted(KINDS):
        kind = KINDS[name]
        print(f"  {name:10s} {kind.summary} (gate: {kind.baseline})", file=stream)


def _run_check_all() -> int:
    results = check_all()
    failures = 0
    for result in results:
        for line in result.verdict_lines():
            print(f"{result.kind.name:12s} {line}")
        failures += 0 if result.ok else 1
    gated = len(results)
    if failures:
        print(f"bench --check-all: FAIL ({failures}/{gated} gates)")
        return 1
    print(f"bench --check-all: OK ({gated} gates)")
    return 0


def _write_json(json_path: Optional[str], report: dict) -> None:
    if json_path is not None and report:
        with open(json_path, "w") as handle:
            handle.write(render_json(report))


def _gate(kind: Kind, json_path: Optional[str]) -> int:
    result = run_gate(kind)
    for line in result.verdict_lines():
        print(line, file=sys.stdout if result.ok else sys.stderr)
    _write_json(json_path, result.report)
    return 0 if result.ok else 1


def _write(kind: Kind) -> int:
    result = write_baseline(kind)
    if not result.ok:
        for line in result.verdict_lines():
            print(line, file=sys.stderr)
        print(f"{kind.baseline} not written", file=sys.stderr)
        return 1
    print(f"wrote {baseline_path(kind)} ({result.detail()})")
    return 0


def _run(kind: Kind, params: dict, json_path: Optional[str]) -> int:
    report = kind.run(params)
    sys.stdout.write(render_text(kind, report))
    _write_json(json_path, report)
    if json_path is not None:
        print(f"wrote {json_path}")
    verdicts = invariant_verdicts(kind, report)
    for verdict in verdicts:
        print(f"FAIL: {verdict}", file=sys.stderr)
    return 1 if verdicts else 0


def main(argv: List[str]) -> int:
    """Entry point for ``python -m repro bench``; returns the exit code."""
    name: Optional[str] = None
    overrides: List[str] = []
    check = write = list_only = do_check_all = False
    json_path: Optional[str] = None
    arguments = list(argv)
    while arguments:
        arg = arguments.pop(0)
        if arg == "--list":
            list_only = True
        elif arg == "--check-all":
            do_check_all = True
        elif arg == "--check":
            check = True
        elif arg == "--write":
            write = True
        elif arg == "--json":
            if not arguments:
                print("--json requires a path", file=sys.stderr)
                return 2
            json_path = arguments.pop(0)
        elif arg.startswith("--"):
            print(f"unknown option {arg!r}", file=sys.stderr)
            return 2
        elif name is None:
            name = arg
        elif "=" in arg:
            overrides.append(arg)
        else:
            print(
                f"unexpected argument {arg!r} (one scenario per run; "
                f"overrides are key=value)",
                file=sys.stderr,
            )
            return 2

    if json_path is not None and (list_only or do_check_all):
        flag = "--list" if list_only else "--check-all"
        print(f"{flag} writes no report; --json is for one scenario", file=sys.stderr)
        return 2
    if list_only:
        others = [arg for arg in argv if arg != "--list"]
        if others:
            print(f"--list takes no other argument; got {others[0]!r}", file=sys.stderr)
            return 2
        _print_available(sys.stdout)
        return 0
    if do_check_all:
        if name is not None or check or write:
            print("--check-all takes no scenario argument", file=sys.stderr)
            return 2
        return _run_check_all()
    if name is None:
        print(USAGE, file=sys.stderr)
        _print_available(sys.stderr)
        return 2
    if check and write:
        print("--check and --write are mutually exclusive", file=sys.stderr)
        return 2
    if overrides and (check or write):
        print(
            "--check/--write judge the committed configuration; "
            "overrides are for plain runs",
            file=sys.stderr,
        )
        return 2
    kind = KINDS.get(name)
    if kind is None:
        print(f"unknown scenario {name!r}", file=sys.stderr)
        _print_available(sys.stderr)
        return 2
    try:
        params = apply_overrides(kind, overrides)
    except ConfigError as error:
        print(str(error), file=sys.stderr)
        return 2
    try:
        if check:
            return _gate(kind, json_path)
        if write:
            return _write(kind)
        return _run(kind, params, json_path)
    except ConfigurationError as error:
        # A well-typed parameter the execution plane refuses (an unknown
        # fleet shape, conductor mode or chaos scenario name).
        print(str(error), file=sys.stderr)
        return 2
