"""Host-clock measurement for the ledger: timed repeats, the tracer, probes.

Nothing here adds a timer, counter or switch inside ``src/``: timed runs
read the host clock around ``workload.run``; the traced run puts the same
call under ``cProfile`` and attributes each function's *self* time to the
layer its file lives in; probes time one public function directly.
"""

from __future__ import annotations

import cProfile
import gc
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Tuple

__all__ = [
    "LAYERS",
    "cpu_seconds",
    "import_seconds",
    "peak_rss_mb",
    "probes",
    "summary",
    "timed_repeat",
    "traced",
]

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(PERF_DIR), "src")
_REPRO_DIR = os.path.join(SRC_DIR, "repro") + os.sep

#: The layers that get ``<layer>.self_s`` / ``<layer>.calls`` metrics: the
#: packages under ``src/repro`` on the timed path, plus ``python`` for
#: everything outside ``src/repro`` (interpreter built-ins, the standard
#: library and this directory's own load generators).
LAYERS = (
    "sim", "cab", "runtime", "protocols", "hw", "hub", "host", "buf",
    "cluster", "telemetry", "model", "apps", "python",
)


# ------------------------------------------------------------------ the clocks


def cpu_seconds() -> float:
    """Process CPU seconds so far, this process plus its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any waited-for child."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def summary(samples: List[float]) -> Dict[str, float]:
    """n, min, quartiles, median and max of a list of timings."""
    ordered = sorted(samples)
    if len(ordered) > 1:
        q1, _q2, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "n": len(ordered),
        "min": ordered[0],
        "q1": q1,
        "median": statistics.median(ordered),
        "q3": q3,
        "max": ordered[-1],
    }


def import_seconds(samples: int) -> List[float]:
    """Time ``import workloads`` (all of ``repro`` a run needs) in fresh
    interpreters — an import can only be paid once per process."""
    code = (
        "import sys, time; sys.path[:0] = [%r, %r]; t = time.perf_counter(); "
        "import workloads; print(time.perf_counter() - t)" % (SRC_DIR, PERF_DIR)
    )
    return [
        float(
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True
            ).stdout
        )
        for _ in range(samples)
    ]


def timed_repeat(workload, seed: int, scale: int) -> Tuple[dict, object]:
    """One repeat on a fresh system: build, collect garbage, time the run.

    Returns ``({"setup_s", "wall_s", "cpu_s"}, outcome)``.  The system is
    dropped on return and the previous repeat's is collected before the
    next is built, so peak RSS is one system's, not three.
    """
    gc.collect()
    start = time.perf_counter()
    rig = workload.fresh_build(seed, scale)
    setup = time.perf_counter() - start
    gc.collect()
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    workload.run(rig)
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0
    return {"setup_s": setup, "wall_s": wall, "cpu_s": cpu}, workload.outcome(rig)


# ------------------------------------------------------------------ the tracer


def _layer_of(filename: str) -> str:
    if not filename.startswith(_REPRO_DIR):
        return "python"
    parts = filename[len(_REPRO_DIR):].split(os.sep)
    # bench drivers and the top-level modules (system.py, units.py) are the
    # glue above the layers, like apps.
    if len(parts) == 1 or parts[0] == "bench":
        return "apps"
    return parts[0]


def traced(fn: Callable, *args) -> dict:
    """Run ``fn(*args)`` under the profile hook; fold functions into layers.

    A function's self time is its span minus the spans of what it calls, so
    the layer self times add up to the traced wall.  Returns the wall, the
    layer table, the top 20 functions and the time blocked in pipe receives.
    """
    profile = cProfile.Profile()
    gc.collect()
    start = time.perf_counter()
    profile.runcall(fn, *args)
    wall = time.perf_counter() - start
    profile.create_stats()
    layers: Dict[str, Dict[str, float]] = {}
    functions = []
    pipe_wait = 0.0
    for (filename, line, name), (_cc, calls, self_s, cum_s, _callers) in profile.stats.items():
        layer = _layer_of(filename)
        row = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
        row["self_s"] += self_s
        row["calls"] += calls
        functions.append((self_s, calls, layer, f"{filename}:{line}({name})"))
        if name == "recv" and filename.endswith(
            os.path.join("multiprocessing", "connection.py")
        ):
            pipe_wait += cum_s
    functions.sort(reverse=True)
    return {
        "wall_s": wall,
        "layers": dict(sorted(layers.items())),
        "calls": sum(row["calls"] for row in layers.values()),
        "self_sum_s": sum(row["self_s"] for row in layers.values()),
        "pipe_wait_s": pipe_wait,
        "top": [
            {
                "function": where.replace(_REPRO_DIR, "repro/"),
                "layer": layer,
                "self_s": self_s,
                "calls": calls,
            }
            for self_s, calls, layer, where in functions[:20]
        ],
    }


# ------------------------------------------------------------------ the probes


def _per_op_ns(batch: Callable[[], int], batches: int = 5) -> float:
    """Best over ``batches`` of (batch wall / ops the batch reports), in ns."""
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        ops = batch()
        samples.append((time.perf_counter() - start) * 1e9 / ops)
    return min(samples)


def probes(scale: int = 1) -> Dict[str, float]:
    """Time one public function per layer directly (each ~0.3 s at scale 1)."""
    from repro.buf.accounting import CopyMeter
    from repro.buf.packet import PacketBuffer
    from repro.buf.ring import HandoffRing
    from repro.hub.network import Handoff
    from repro.hw.crc import crc32
    from repro.protocols.checksum import internet_checksum
    from repro.sim.core import Simulator

    block = bytes(range(256)) * 32  # 8 KB

    def timeouts(n=max(1, 20000 // scale)) -> int:
        sim = Simulator()

        def ticker():
            for _ in range(n):
                yield sim.timeout(1)

        sim.process(ticker())
        sim.run()
        return n

    def call_ats(n=max(1, 20000 // scale)) -> int:
        sim = Simulator()
        for at in range(n):
            sim.call_at(at, _nothing, (at,))
        sim.run()
        return n

    def checksums(n=max(1, 100 // scale)) -> int:
        for _ in range(n):
            internet_checksum(block)
        return n * len(block) // 1024

    def crcs(n=max(1, 8000 // scale)) -> int:
        for _ in range(n):
            crc32(block)
        return n * len(block) // 1024

    def buffers(n=max(1, 40000 // scale)) -> int:
        meter = CopyMeter()
        for _ in range(n):
            PacketBuffer.alloc(8192, headroom=64, meter=meter).release()
        return n

    handoff = Handoff(
        fire_ns=1000, key=("hub00", 7, 1), dst_hub="hub01", remaining=(3, 1),
        payload=block[:256], src="cab-00-03", crc=0, seqno=1, created_ns=750,
    )

    def ring_cycles(n=max(1, 10000 // scale)) -> int:
        ring = HandoffRing(bytearray(1 << 16))
        for _ in range(n):
            ring.push(handoff)
            ring.pop()
        return n

    return {
        "sim.probe_timeout_ns": _per_op_ns(timeouts),
        "sim.probe_call_at_ns": _per_op_ns(call_ats),
        "protocols.probe_checksum_ns_per_kb": _per_op_ns(checksums),
        "hw.probe_crc_ns_per_kb": _per_op_ns(crcs),
        "buf.probe_alloc_release_ns": _per_op_ns(buffers),
        "buf.probe_ring_push_pop_ns": _per_op_ns(ring_cycles),
    }


def _nothing() -> None:
    pass
