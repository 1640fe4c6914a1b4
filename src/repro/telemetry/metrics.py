"""The metrics plane: the one store of counters, gauges and histograms.

Every :class:`~repro.system.NectarSystem` owns one :class:`MetricsRegistry`
(``system.metrics``) from construction, telemetry on or off.  A component
counts into its own :class:`CounterScope` (``component.stats``) and whoever
assembles the component *mounts* that scope in the registry under a prefix;
the registry owns naming, collection and exposition
(``docs/observability.md`` has the table of mount points, checked against a
real run).  A component built alone (a unit test's bare ``Hub`` or ``CPU``)
simply has a scope nobody mounted: it counts the same, and is exported
nowhere.

All values are simulated quantities — counts, simulated nanoseconds, bytes
— so two runs with the same seed expose byte-identical reports:

* :meth:`MetricsRegistry.render_json` — canonical JSON (sorted keys, fixed
  separators): byte-stable for a deterministic run.
* :meth:`MetricsRegistry.render_prometheus` — Prometheus text format 0.0.4
  (``repro_``-prefixed, dots mapped to underscores), also byte-stable.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Union

from repro.errors import ConfigurationError, NectarError

__all__ = [
    "CounterScope",
    "DEFAULT_NS_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default duration buckets (ns): 1 us .. 10 ms, then overflow.  Wide enough
#: for everything from a mailbox op to a TCP retransmission timeout.
DEFAULT_NS_BUCKETS = (
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
)


class CounterScope:
    """One component's counters: a name -> int bag, mountable in a registry.

    The whole write path is :meth:`add` — one frame, no per-counter object.
    ``registry``/``prefix`` stay ``None`` until :meth:`MetricsRegistry.mount`
    places the scope.
    """

    __slots__ = ("counts", "registry", "prefix")

    def __init__(self):
        self.counts: Dict[str, int] = {}
        self.registry: "MetricsRegistry | None" = None
        self.prefix: "str | None" = None

    def add(self, name: str, amount: int = 1) -> None:
        """Increment the named counter by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {name}: cannot add negative {amount}")
        try:
            self.counts[name] += amount
        except KeyError:
            self.counts[name] = amount

    def value(self, name: str) -> int:
        """Current value of the named counter (0 if never touched)."""
        return self.counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        """This scope's own counters as a sorted name -> value dict."""
        return dict(sorted(self.counts.items()))

    def mount(self, name: str, bag):
        """Mount ``bag`` at ``<prefix>.<name>``, beside this scope.

        A scope nobody mounted has nowhere to put it: ``bag`` stays
        detached too.  Returns ``bag``.
        """
        if self.registry is not None:
            self.registry.mount(f"{self.prefix}.{name}", bag)
        return bag


class Gauge:
    """A value that goes up and down (heap bytes in use, FIFO level)."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        """Replace the current value."""
        self.value = value

    def add(self, delta: Union[int, float]) -> None:
        """Move the current value by ``delta`` (may be negative)."""
        self.value += delta

    def snapshot(self) -> Union[int, float]:
        """The current value."""
        return self.value


class Histogram:
    """A fixed-bucket histogram (cumulative counts, Prometheus-style).

    ``buckets`` are upper bounds in strictly ascending order; an implicit +Inf bucket
    catches the overflow.  Bounds are fixed at construction so two runs of
    the same workload produce identical series names.
    """

    kind = "histogram"
    __slots__ = ("name", "bounds", "counts", "overflow", "total", "count")

    def __init__(self, name: str, buckets: Sequence[int] = DEFAULT_NS_BUCKETS):
        if not buckets or any(a >= b for a, b in zip(buckets, buckets[1:])):
            raise NectarError(
                f"histogram {name}: buckets must be strictly ascending, got {buckets}"
            )
        self.name = name
        self.bounds = tuple(buckets)
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.total = 0
        self.count = 0

    def observe(self, value: int) -> None:
        """Record one sample into its bucket (or the overflow bucket)."""
        self.count += 1
        self.total += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.overflow += 1

    def snapshot(self) -> Dict[str, Union[int, List[int]]]:
        """Bucket bounds/counts, overflow, sum, and sample count."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "overflow": self.overflow,
            "sum": self.total,
            "count": self.count,
        }


_Metric = Union[Gauge, Histogram]


class MetricsRegistry:
    """The one metrics store of a :class:`~repro.system.NectarSystem`.

    Counters live in the bags mounted here (anything with a ``snapshot()``
    of name -> int: a :class:`CounterScope`, the host-copy meter); gauges
    and histograms are created here by full series name.  A counter's
    series name is ``<mount prefix>.<counter name>``.
    """

    def __init__(self):
        self._mounts: Dict[str, object] = {}
        self._metrics: Dict[str, _Metric] = {}

    # -- counters ---------------------------------------------------------------

    def mount(self, prefix: str, bag):
        """Place a counter bag at ``prefix``; one bag per prefix.  Returns it."""
        if not prefix:
            raise ConfigurationError("metrics mount prefix must be non-empty")
        if prefix in self._mounts:
            raise ConfigurationError(
                f"metrics prefix {prefix!r} is already mounted: two components "
                f"cannot share one counter namespace"
            )
        self._mounts[prefix] = bag
        if isinstance(bag, CounterScope):
            bag.registry = self
            bag.prefix = prefix
        return bag

    def mounts(self) -> Dict[str, object]:
        """Mount prefix -> bag, sorted by prefix."""
        return dict(sorted(self._mounts.items()))

    def counters(self, *prefixes: str) -> Dict[str, int]:
        """Counter series name -> value, sorted: the bags mounted at exactly
        ``prefixes``, or every mounted bag when none are named."""
        flat = {
            f"{prefix}.{name}": value
            for prefix in prefixes or self._mounts
            for name, value in self._mounts[prefix].snapshot().items()
        }
        return dict(sorted(flat.items()))

    # -- gauges and histograms --------------------------------------------------

    def _get(self, name: str, kind: type, **kwargs) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise NectarError(
                f"metric {name} already registered as {metric.kind}, "
                f"not {kind.__name__.lower()}"
            )
        return metric

    def gauge(self, name: str) -> Gauge:
        """The named gauge, created on first use."""
        return self._get(name, Gauge)

    def histogram(self, name: str, buckets: Sequence[int] = DEFAULT_NS_BUCKETS) -> Histogram:
        """The named histogram, created on first use with fixed buckets."""
        return self._get(name, Histogram, buckets=buckets)

    # -- exposition -------------------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """All series as ``name -> {"type", "value"}``, sorted by name."""
        series = {
            name: {"type": metric.kind, "value": metric.snapshot()}
            for name, metric in self._metrics.items()
        }
        for name, value in self.counters().items():
            if name in series:
                raise NectarError(
                    f"metric {name} is both a counter and a {series[name]['type']}"
                )
            series[name] = {"type": "counter", "value": value}
        return dict(sorted(series.items()))

    def names(self) -> List[str]:
        """All series names, sorted."""
        return list(self.snapshot())

    def series_count(self) -> int:
        """Number of distinct series."""
        return len(self.snapshot())

    def render_json(self) -> str:
        """Canonical (byte-stable) JSON exposition."""
        return json.dumps(
            {"series": self.snapshot()},
            sort_keys=True,
            separators=(",", ":"),
        )

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4 (byte-stable)."""
        lines: List[str] = []
        for name, series in self.snapshot().items():
            prom = _prometheus_name(name)
            kind, value = series["type"], series["value"]
            lines.append(f"# TYPE {prom} {kind}")
            if kind == "histogram":
                cumulative = 0
                for bound, count in zip(value["bounds"], value["counts"]):
                    cumulative += count
                    lines.append(f'{prom}_bucket{{le="{bound}"}} {cumulative}')
                cumulative += value["overflow"]
                lines.append(f'{prom}_bucket{{le="+Inf"}} {cumulative}')
                lines.append(f"{prom}_sum {value['sum']}")
                lines.append(f"{prom}_count {value['count']}")
            else:
                lines.append(f"{prom} {value}")
        lines.append("")
        return "\n".join(lines)


def _prometheus_name(name: str) -> str:
    """Map a dotted series name to a legal Prometheus metric name."""
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    return f"repro_{safe}"
