"""Cycle-accurate CPU profiler for the simulated CAB processors.

Every simulated nanosecond a :class:`~repro.cab.cpu.CPU` charges to its
``busy_ns`` ledger is attributed here to a *(track, category, name)* triple:

* ``track`` — which CPU the cycles burned on (``cab-a.cpu``);
* ``category`` — where in the kernel they went: ``thread`` (protocol handler
  code), ``irq`` (interrupt handler bodies), ``sched`` (dispatch + context
  switch), ``irq-overhead`` (interrupt entry/exit microcode), ``dma``
  (the CAB's DMA engines);
* ``name`` — the specific thread, handler, or engine.

Attribution happens at the existing charge sites inside the CPU engine, so
the profile is exact by construction: the per-CPU totals equal ``busy_ns``
to the nanosecond.  It hangs on the simulation's tracer
(``sim.tracer.profiler``), records zero simulated time, and is a single
attribute check when detached.

:meth:`CycleProfiler.folded` emits classic folded-stack lines
(``track;category;name value``) that flamegraph.pl / speedscope / inferno
consume directly.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["CycleProfiler"]


class CycleProfiler:
    """Accumulates simulated CPU cycles by (track, category, name)."""

    def __init__(self):
        self._cycles: Dict[Tuple[str, str, str], int] = {}

    def account(self, track: str, category: str, name: str, duration: int) -> None:
        """Attribute ``duration`` simulated ns to one stack."""
        if duration <= 0:
            return
        key = (track, category, name)
        self._cycles[key] = self._cycles.get(key, 0) + duration

    # -- queries ---------------------------------------------------------------

    def total_ns(self, track: str = None) -> int:
        """Total attributed ns, optionally restricted to one track."""
        return sum(
            duration
            for (key_track, _, _), duration in self._cycles.items()
            if track is None or key_track == track
        )

    def by_category(self, track: str = None) -> Dict[str, int]:
        """ns per category (``thread``, ``irq``, ``sched``, ...), sorted."""
        totals: Dict[str, int] = {}
        for (key_track, category, _), duration in self._cycles.items():
            if track is None or key_track == track:
                totals[category] = totals.get(category, 0) + duration
        return dict(sorted(totals.items()))

    def snapshot(self) -> Dict[str, int]:
        """Flat ``"track;category;name" -> ns`` mapping, sorted by stack."""
        return {
            ";".join(key): duration for key, duration in sorted(self._cycles.items())
        }

    # -- exposition ------------------------------------------------------------

    def folded(self) -> str:
        """Folded-stack output for flamegraph tooling (one stack per line)."""
        lines: List[str] = [
            f"{track};{category};{name} {duration}"
            for (track, category, name), duration in sorted(self._cycles.items())
        ]
        lines.append("")
        return "\n".join(lines)
