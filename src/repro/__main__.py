"""``python -m repro``: dispatch to the subcommand named first.

The usage block below is generated from the dispatch table
(:data:`_SUBCOMMANDS`) that actually routes the arguments, so it cannot
drift from the real command set; ``tests/test_bench_cli.py`` pins the two
together.

``lint`` runs nectarlint, the static determinism/sim-safety checker
(see :mod:`repro.analysis.nectarlint`); with ``--static`` it also checks
the protocol state machines over the same parsed files (see
:mod:`repro.analysis.fsm`); ``observe`` runs a
workload with the telemetry plane on and exports Perfetto traces,
metrics, and cycle profiles (see :mod:`repro.telemetry.observe`);
``bench`` is the scenario harness (see :mod:`repro.scenario`) and the
only way to run or gate a scenario kind — the sharded fleet (``bench
scale``, :mod:`repro.cluster`), the multicast/collective bench (``bench
mcast``), the buffer plane (``bench buf``), the fault campaigns
(``bench chaos``, :mod:`repro.faults.campaign`), the observe workloads' summaries and
artifact digests (``bench observe``), the capacity workload, and the
paper's tables and figures: it runs any kind of the registry, takes
``key=value`` parameter overrides, and ``bench --check-all`` is the one
regression gate over every committed baseline (``BENCH_*.json``,
``CHAOS_baseline.txt``).
"""

from __future__ import annotations

import importlib
import sys

#: Subcommand dispatch: name -> (module with ``main(argv)``, usage line).
_SUBCOMMANDS = {
    "lint": (
        "repro.analysis.nectarlint",
        "lint [paths...] [--strict] [--static] [--format text|json]\n"
        "                      [--select CODES] [--ignore CODES] [--explain]",
    ),
    "observe": (
        "repro.telemetry.observe",
        "observe [--workload NAME] [--trace FILE] [--metrics FILE]",
    ),
    "bench": (
        "repro.scenario.cli",
        "bench <scenario> [key=value ...] [--json FILE]\n"
        "        python -m repro  bench <scenario> --check | --write\n"
        "        python -m repro  bench --list | --check-all",
    ),
}


def build_usage() -> str:
    """The usage block, generated from the dispatch table."""
    lines = [
        f"python -m repro  {usage}" for _module, usage in _SUBCOMMANDS.values()
    ]
    return "Usage:  " + "\n        ".join(lines)


__doc__ = __doc__.replace(
    "The usage block below",
    build_usage() + "\n\nThe usage block above",
    1,
)


def main(argv: list[str]) -> int:
    """Dispatch ``python -m repro`` arguments; returns the exit code."""
    if argv and argv[0] in _SUBCOMMANDS:
        module_name, _usage = _SUBCOMMANDS[argv[0]]
        module = importlib.import_module(module_name)
        return module.main(argv[1:])
    if argv:
        from repro.scenario.runner import KINDS

        hint = ""
        if argv[0] in KINDS:
            hint = f": it is a scenario (python -m repro bench {argv[0]})"
        print(f"unknown subcommand {argv[0]!r}{hint}", file=sys.stderr)
    print(build_usage(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
