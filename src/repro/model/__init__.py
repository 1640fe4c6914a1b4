"""Timing/cost model and measurement statistics."""

from repro.model.costs import CostModel, DEFAULT_COSTS
from repro.model.stats import LatencyRecorder

__all__ = [
    "CostModel",
    "DEFAULT_COSTS",
    "LatencyRecorder",
]
