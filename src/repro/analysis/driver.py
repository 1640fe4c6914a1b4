"""Dynamic analysis driver: ``python -m repro analyze``.

Runs the Table-1 CAB-to-CAB datagram latency scenario — the repo's
canonical end-to-end workload — under two kinds of scrutiny:

1. **Determinism**: the scenario is executed twice in fresh simulators and
   the full event-trace signatures (every trace record, every latency
   sample, the final simulated clock) must match bit for bit, enforcing the
   reproducibility promise of :mod:`repro.sim.core`.
2. **Sanitizers**: the scenario is executed once more with the full
   :class:`~repro.analysis.sanitizers.Sanitizer` attached (heap accounting,
   lock-order graph, happens-before race detection) and any error report
   fails the run.

Exit status is non-zero on any determinism mismatch or sanitizer error, so
the command can serve as a CI gate alongside ``python -m repro lint``.
"""

from __future__ import annotations

import sys
from typing import List, Optional, Tuple

from repro.analysis.sanitizers import Sanitizer
from repro.apps.traffic import measure_rtt
from repro.sim.trace import TraceRecorder
from repro.system import NectarSystem

__all__ = ["determinism_check", "main", "run_sanitized_scenario", "trace_signature"]

_DEFAULT_ROUNDS = 12
_DEFAULT_WARMUP = 2


def _build_rig(sanitizer: Optional[Sanitizer] = None):
    """The paper's measurement rig: two CABs through one HUB."""
    system = NectarSystem(sanitizer=sanitizer)
    hub = system.add_hub("hub0")
    node_a = system.add_node("cab-a", hub, 0)
    node_b = system.add_node("cab-b", hub, 1)
    return system, node_a, node_b


def trace_signature(
    rounds: int = _DEFAULT_ROUNDS, warmup: int = _DEFAULT_WARMUP
) -> Tuple:
    """One full run of the datagram RTT scenario, reduced to a signature.

    The signature contains every trace record (timestamp, component,
    label), every recorded latency sample, and the final simulated time —
    enough that any divergence in event ordering or cost accounting between
    two runs changes it.
    """
    system, node_a, node_b = _build_rig()
    recorder = TraceRecorder()
    system.tracer.sink = recorder
    latencies = measure_rtt(
        system, node_a, node_b, "datagram", rounds=rounds, warmup=warmup
    )
    system.tracer.sink = None
    events = tuple(
        (event.time_ns, event.component, event.label) for event in recorder.events
    )
    return (events, tuple(latencies.samples_ns), system.now)


def determinism_check(
    rounds: int = _DEFAULT_ROUNDS, warmup: int = _DEFAULT_WARMUP
) -> Tuple[bool, str]:
    """Run the scenario twice; report whether the signatures match."""
    first = trace_signature(rounds=rounds, warmup=warmup)
    second = trace_signature(rounds=rounds, warmup=warmup)
    if first == second:
        return True, (
            f"determinism: OK ({len(first[0])} trace events, "
            f"{len(first[1])} samples, final t={first[2]} ns identical "
            f"across two runs)"
        )
    details: List[str] = ["determinism: MISMATCH between two identical runs"]
    if first[2] != second[2]:
        details.append(f"  final time differs: {first[2]} ns vs {second[2]} ns")
    if first[1] != second[1]:
        details.append(f"  latency samples differ: {first[1]} vs {second[1]}")
    if first[0] != second[0]:
        limit = min(len(first[0]), len(second[0]))
        for index in range(limit):
            if first[0][index] != second[0][index]:
                details.append(
                    f"  first divergent trace event #{index}: "
                    f"{first[0][index]} vs {second[0][index]}"
                )
                break
        else:
            details.append(
                f"  trace lengths differ: {len(first[0])} vs {len(second[0])}"
            )
    return False, "\n".join(details)


def run_sanitized_scenario(
    rounds: int = _DEFAULT_ROUNDS, warmup: int = _DEFAULT_WARMUP
) -> Sanitizer:
    """Run the datagram RTT scenario with all sanitizers attached."""
    sanitizer = Sanitizer()
    system, node_a, node_b = _build_rig(sanitizer=sanitizer)
    measure_rtt(system, node_a, node_b, "datagram", rounds=rounds, warmup=warmup)
    sanitizer.check()
    return sanitizer


def main(argv: List[str]) -> int:
    """CLI entry: ``python -m repro analyze [--rounds N] [--skip-races]``."""
    rounds = _DEFAULT_ROUNDS
    skip_races = False
    arguments = list(argv)
    while arguments:
        arg = arguments.pop(0)
        if arg == "--rounds":
            if not arguments or not arguments[0].isdigit():
                print("--rounds requires an integer", file=sys.stderr)
                return 2
            rounds = int(arguments.pop(0))
        elif arg == "--skip-races":
            skip_races = True
        else:
            print(f"unknown option {arg!r}", file=sys.stderr)
            return 2

    ok, message = determinism_check(rounds=rounds)
    print(message)

    if skip_races:
        sanitizer = Sanitizer(races=False)
        system, node_a, node_b = _build_rig(sanitizer=sanitizer)
        measure_rtt(
            system, node_a, node_b, "datagram", rounds=rounds, warmup=_DEFAULT_WARMUP
        )
        sanitizer.check()
    else:
        sanitizer = run_sanitized_scenario(rounds=rounds)
    print(sanitizer.render())

    if not ok or sanitizer.errors:
        return 1
    return 0
