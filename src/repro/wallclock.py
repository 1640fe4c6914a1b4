"""The host wall clock — the one place the library reads it.

Simulated time never touches this: wall time feeds only the quarantined
``measured`` sections of the bench reports.
"""

from __future__ import annotations

import time

__all__ = ["wall_clock_ns", "wall_ns_since"]


def wall_clock_ns() -> int:
    """Host monotonic clock in nanoseconds."""
    # The library's only wall-clock read; never reaches simulated time.
    return time.perf_counter_ns()  # nectarlint: disable=ND001


def wall_ns_since(start_ns: int) -> int:
    """Nanoseconds elapsed since ``start_ns``; at least 1, so it can divide."""
    return max(1, wall_clock_ns() - start_ns)
