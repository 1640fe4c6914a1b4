"""Resident-set guards: a CAB costs the bytes it touches, not the bytes it has.

``MemoryRegion`` is backed by a demand-zero mapping, so building a fleet
must not make its 1 MB + 640 KB per CAB resident (docs/scaling.md,
"Footprint").  Growth is read from ``/proc/self/statm``; bounds are several
times the measured figure and several times below what eager zeroing costs.
"""

import gc
import os

import pytest

from repro.cluster.fleet import build_fleet_system, line_fleet
from repro.cluster.workload import Workload, WorkloadSpec
from repro.hw.memory import MemoryRegion

MIB = 1 << 20
STATM = "/proc/self/statm"

pytestmark = pytest.mark.skipif(
    not os.path.exists(STATM), reason="resident set is read from /proc/self/statm"
)


def resident_bytes() -> int:
    """This process's resident set right now."""
    gc.collect()
    with open(STATM) as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def test_a_region_is_not_resident_until_written():
    before = resident_bytes()
    region = MemoryRegion("big", 256 * MIB)
    region.write(128 * MIB, b"touched")
    assert region.read(128 * MIB, 7) == b"touched"
    assert region.read(256 * MIB - 4096, 4096) == bytes(4096)
    assert resident_bytes() - before < 8 * MIB


def test_building_a_64_cab_fleet_does_not_zero_its_memory():
    before = resident_bytes()
    system = build_fleet_system(line_fleet(4, 16, 18))
    assert len(system.nodes) == 64
    assert resident_bytes() - before < 16 * MIB


def test_a_1024_cab_fleet_builds_runs_and_stays_small():
    fleet = line_fleet(n_hubs=16, cabs_per_hub=64, hub_ports=66)
    spec = WorkloadSpec(
        seed=24, rmp_flows=6, rpc_flows=4, tcp_flows=2, mcast_flows=1, barrier_flows=1
    )
    before = resident_bytes()
    system = build_fleet_system(fleet)
    assert len(system.nodes) == 1024
    workload = Workload(spec, fleet)
    workload.install(system)
    system.run()
    assert workload.incomplete(system) == ()
    assert workload.flow_results
    assert system.copy_meter.live_buffers == 0
    assert resident_bytes() - before < 96 * MIB
