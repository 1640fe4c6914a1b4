"""The declarative fault-plan model: seeded, windowed fault specifications.

A :class:`FaultPlan` is a master seed plus an ordered list of
:class:`FaultSpec` records.  Each spec names *what* goes wrong (the fault
``kind``), *where* (a site pattern matched against link endpoints, FIFO
names, or ``node:mailbox`` labels), *when* (an optional simulated-time
window), and *how often* (exactly the Nth matching occurrence, every Nth,
or an independent seeded coin flip per occurrence).

The plan is pure data: evaluating it against the running simulation is the
job of :class:`repro.faults.injector.Injector`.  Determinism is structural
— every random decision flows from ``Random(plan.seed, spec index)`` and
occurrence counters that advance in simulation event order, so a fixed
plan produces bit-identical fault schedules across runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError

__all__ = [
    "CORRUPT",
    "CRASH",
    "DROP",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "MBOX_LOSE",
    "SQUEEZE",
    "STALL",
]

#: Frame silently eaten by the fabric at link egress (transports recover).
DROP = "drop"
#: One payload byte flipped on the wire; the receiving CAB's hardware CRC
#: rejects the frame at end-of-packet.
CORRUPT = "corrupt"
#: Extra per-frame delay on the sending link (stall / jitter window).
STALL = "stall"
#: FIFO back-pressure squeeze: part of a FIFO's capacity is reserved, so
#: producers block earlier (the HUB's low-level flow control under load).
SQUEEZE = "squeeze"
#: Message lost while being queued into a mailbox (host-CAB interface
#: loss; aim it at transport input mailboxes such as ``tcp-input``).
MBOX_LOSE = "mbox-lose"
#: Whole-CAB blackout window: every frame to or from the named CAB is
#: eaten while the window is open; the board "restarts" when it closes.
CRASH = "crash"

FAULT_KINDS = (DROP, CORRUPT, STALL, SQUEEZE, MBOX_LOSE, CRASH)


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: kind + site + window + firing schedule.

    ``where`` is matched against the hook site's label: the sending or
    receiving CAB name for ``crash``, the sending CAB name for
    ``drop``/``corrupt``/``stall``, the FIFO name for ``squeeze``
    (substring match, e.g. ``"cab-b.fiber-in"``), and ``"node:mailbox"``
    for ``mbox-lose`` (either half may be matched alone).  ``"*"`` matches
    every site.  A ``drop`` pattern containing ``"->"`` is *directed*: it
    is matched against ``"sender->branch"`` at the HUB's multicast fan-out
    only, dropping single replicas (how ``multicast-storm`` aims at one
    member).  No other kind has a ``"src->dst"`` site, so a directed
    pattern on any other kind is refused.

    Firing schedule (first one set wins, checked in this order):

    * ``nth`` — fire on exactly the Nth matching occurrence (1-based).
    * ``every_nth`` — fire on every Nth matching occurrence.
    * ``probability`` — independent seeded coin flip per occurrence.
    * none of the above — fire on every matching occurrence (window-gated
      faults such as ``crash`` and ``squeeze`` normally use this).

    ``max_fires`` caps the total number of firings; ``window_ns`` is a
    half-open ``[start, end)`` simulated-time interval outside which the
    spec never matches.  ``stall_ns`` and ``squeeze_bytes`` parameterize
    the ``stall`` and ``squeeze`` kinds.
    """

    kind: str
    where: str = "*"
    window_ns: Optional[tuple[int, int]] = None
    probability: float = 0.0
    nth: int = 0
    every_nth: int = 0
    max_fires: Optional[int] = None
    stall_ns: int = 0
    squeeze_bytes: int = 0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.nth < 0 or self.every_nth < 0:
            raise ConfigurationError("nth/every_nth must be >= 0")
        if self.window_ns is not None:
            start, end = self.window_ns
            if start < 0 or end <= start:
                raise ConfigurationError(
                    f"window must satisfy 0 <= start < end, got {self.window_ns}"
                )
        if self.kind == STALL and self.stall_ns <= 0:
            raise ConfigurationError("stall faults require stall_ns > 0")
        if self.kind == SQUEEZE and self.squeeze_bytes <= 0:
            raise ConfigurationError("squeeze faults require squeeze_bytes > 0")
        if self.max_fires is not None and self.max_fires <= 0:
            raise ConfigurationError("max_fires must be positive when set")
        if "->" in self.where and self.kind != DROP:
            raise ConfigurationError(
                f"a directed 'src->dst' pattern selects fan-out branches, "
                f"which only drop faults see; got {self.kind!r} "
                f"where={self.where!r}"
            )

    def in_window(self, now_ns: int) -> bool:
        """Whether the spec is active at simulated time ``now_ns``."""
        if self.window_ns is None:
            return True
        start, end = self.window_ns
        return start <= now_ns < end

    def matches_site(self, site: str) -> bool:
        """Whether this spec's ``where`` pattern selects ``site``."""
        return site_matches(self.where, site)

    def describe(self) -> str:
        """One-line stable rendering (used in chaos reports)."""
        parts = [self.kind, f"where={self.where}"]
        if self.window_ns is not None:
            parts.append(f"window=[{self.window_ns[0]},{self.window_ns[1]})")
        if self.nth:
            parts.append(f"nth={self.nth}")
        elif self.every_nth:
            parts.append(f"every_nth={self.every_nth}")
        elif self.probability:
            parts.append(f"p={self.probability:g}")
        if self.stall_ns:
            parts.append(f"stall_ns={self.stall_ns}")
        if self.squeeze_bytes:
            parts.append(f"squeeze_bytes={self.squeeze_bytes}")
        if self.max_fires is not None:
            parts.append(f"max_fires={self.max_fires}")
        return " ".join(parts)


def site_matches(pattern: str, site: str) -> bool:
    """Site selector: ``"*"`` matches all; otherwise exact or substring.

    Substring matching lets a spec say ``"cab-b.fiber-in"`` and hit the
    FIFO actually named ``"cab-b.fiber-in.fifo"``, or ``"tcp-input"`` and
    hit ``"cab-b:tcp-input"``.
    """
    return pattern == "*" or pattern == site or pattern in site


@dataclass(frozen=True)
class FaultPlan:
    """A master seed plus the ordered fault specs it drives."""

    seed: int
    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        # Accept any iterable of specs but store a tuple (hashable, stable).
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise ConfigurationError(f"plan entries must be FaultSpec, got {spec!r}")

    def rng_for(self, index: int) -> random.Random:
        """The dedicated seeded RNG for spec ``index``.

        Each spec gets an independent stream so adding a spec never
        perturbs the decisions of the others.  String seeding is hashed
        with SHA-512 internally, so it is stable across processes.
        """
        return random.Random(f"faultplan:{self.seed}:{index}")
