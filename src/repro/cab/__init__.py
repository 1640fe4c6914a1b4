"""The CAB (Communication Accelerator Board) and its CPU execution engine."""

from repro.cab.cpu import (
    CPU,
    Block,
    SetMask,
    WaitToken,
    YieldCPU,
    PRIORITY_APPLICATION,
    PRIORITY_SYSTEM,
)
from repro.cab.board import CAB

__all__ = [
    "CAB",
    "CPU",
    "Block",
    "PRIORITY_APPLICATION",
    "PRIORITY_SYSTEM",
    "SetMask",
    "WaitToken",
    "YieldCPU",
]
