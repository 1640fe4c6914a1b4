"""Measurement statistics: the latency recorder the experiment drivers share.

Event counts live in the metrics plane (:mod:`repro.telemetry.metrics`);
what is left here is the per-sample latency summary the benchmarks render
their tables from.
"""

from __future__ import annotations

import math

from repro.units import ns_to_us

__all__ = ["LatencyRecorder"]


class LatencyRecorder:
    """Collects latency samples (ns) and reports summary statistics."""

    def __init__(self, name: str = "latency"):
        self.name = name
        self.samples_ns: list[int] = []

    def record(self, latency_ns: int) -> None:
        """Add one latency sample (ns)."""
        if latency_ns < 0:
            raise ValueError(f"negative latency sample {latency_ns}")
        self.samples_ns.append(latency_ns)

    def __len__(self) -> int:
        return len(self.samples_ns)

    @property
    def count(self) -> int:
        return len(self.samples_ns)

    @property
    def mean_ns(self) -> float:
        if not self.samples_ns:
            raise ValueError("no samples recorded")
        return sum(self.samples_ns) / len(self.samples_ns)

    @property
    def mean_us(self) -> float:
        return ns_to_us(self.mean_ns)

    @property
    def min_ns(self) -> int:
        if not self.samples_ns:
            raise ValueError("no samples recorded")
        return min(self.samples_ns)

    @property
    def max_ns(self) -> int:
        if not self.samples_ns:
            raise ValueError("no samples recorded")
        return max(self.samples_ns)

    def percentile_ns(self, pct: float) -> int:
        """Nearest-rank percentile, pct in [0, 100]."""
        if not self.samples_ns:
            raise ValueError("no samples recorded")
        if not 0 <= pct <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        ordered = sorted(self.samples_ns)
        rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def stdev_ns(self) -> float:
        """Sample standard deviation (0 with fewer than two samples)."""
        if len(self.samples_ns) < 2:
            return 0.0
        mean = self.mean_ns
        var = sum((s - mean) ** 2 for s in self.samples_ns) / (len(self.samples_ns) - 1)
        return math.sqrt(var)
