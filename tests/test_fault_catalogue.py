"""The one fault catalogue: unique names, one listing helper, one verdict.

Every fault case is a fleet, explicit flows, a seeded fault plan and a
horizon (:mod:`repro.faults.catalogue`); ``bench chaos`` judges each one
and lists the catalogue when given an unknown name.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.cluster.workload import Flow, Workload
from repro.errors import ConfigurationError
from repro.faults import catalogue as catalogue_module
from repro.faults.campaign import run_campaign
from repro.faults.catalogue import build, catalogue
from repro.faults.plan import FaultPlan
from repro.scenario import cli as bench_cli
from tests.conftest import shrunk_case

SEED = 7


def test_five_uniquely_named_cases():
    cases = catalogue(SEED)
    assert len(cases) == len(catalogue_module._BUILDERS) == 5
    for name, case in cases.items():
        assert case.name == name and case.summary
        assert case.plan.seed == SEED and case.plan.specs and case.flows


def test_a_duplicate_name_is_refused(monkeypatch):
    builders = catalogue_module._BUILDERS
    monkeypatch.setattr(catalogue_module, "_BUILDERS", builders + builders[:1])
    with pytest.raises(ConfigurationError, match="two catalogue cases"):
        catalogue(SEED)


def test_an_unknown_scenario_lists_the_catalogue(capsys):
    assert bench_cli.main(["chaos", "scenario=nope"]) == 2
    header, *lines = capsys.readouterr().err.splitlines()
    assert "unknown scenario 'nope'" in header and f"seed={SEED}" in header
    cases = catalogue(SEED)
    assert [line.split()[0] for line in lines] == sorted(cases)
    for line in lines:
        assert line.endswith(cases[line.split()[0]].summary)


def test_a_corrupted_delivery_fails_the_bit_exact_check():
    """The chaos verdict compares each record's delivered-bytes digest with
    the digest of its flow's payloads; a wrong byte is a VIOLATED run."""
    report = run_campaign(shrunk_case("lossy-link", SEED))
    assert report.passed
    assert set(report.flow_status()) == {
        "rmp-00",
        "mcast-01@cab-b",
        "mcast-01@cab-c",
        "mcast-01@cab-d",
        "rpc-02",
        "tcp-03",
    }
    report.run.workload.digests["rpc-02"] = "0" * 64
    assert report.flow_status()["rpc-02"] == "corrupt"
    assert not report.passed
    assert "rpc-02: 4 messages, 320 B [corrupt]" in report.render()


def test_swapped_tcp_segments_fail_the_bit_exact_check(monkeypatch):
    """Two TCP segments handed over in the wrong order keep every byte and
    the byte count, and are still caught: a flow's payload bytes depend on
    their position, so the delivered stream's digest differs."""
    case = dataclasses.replace(
        build("lossy-link", SEED),
        flows=(
            Flow(index=0, kind="tcp", src="cab-a", dst="cab-b", messages=1, size=20000),
        ),
        plan=FaultPlan(seed=SEED, specs=()),
    )
    assert run_campaign(case).flow_status() == {"tcp-00": "ok"}

    completion = Workload._completion

    def swapping(self, system, flow, member=None):
        take, record = completion(self, system, flow, member)
        held = []

        def swapped(delivery):
            if len(held) == 2:
                take(delivery)
            elif not held:
                data = bytes(delivery.view())
                held.append(SimpleNamespace(size=len(data), view=lambda: data))
            else:
                take(delivery)
                take(held[0])
                held.append(None)

        return swapped, record

    monkeypatch.setattr(Workload, "_completion", swapping)
    report = run_campaign(case)
    # Three segments: 8960 + 8960 + 2080 bytes, the first two swapped.
    assert report.run.workload.flow_results["tcp-00"]["bytes"] == 20000
    assert report.flow_status() == {"tcp-00": "corrupt"}
    assert not report.passed
