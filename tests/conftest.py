"""Test-suite configuration: fully deterministic property testing.

The simulation itself is deterministic; derandomizing hypothesis makes the
*suite* deterministic too, so a green run is bit-for-bit repeatable.
"""

import dataclasses
import pathlib
import subprocess
import sys

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

REPO = pathlib.Path(__file__).resolve().parent.parent
CLI_ENV = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"}


def shrunk_case(name, seed):
    """The named fault case with every flow cut to at most 4 messages of
    at most 1 KB: the same faults over a quick load."""
    from repro.faults.catalogue import build

    case = build(name, seed)
    flows = tuple(
        dataclasses.replace(
            flow, messages=min(flow.messages, 4), size=min(flow.size, 1024)
        )
        for flow in case.flows
    )
    return dataclasses.replace(case, flows=flows)


def run_cli(*args, timeout=600):
    """``python -m repro <args>`` in a subprocess, from the repo root."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=timeout,
        env=CLI_ENV,
    )


@pytest.fixture(scope="session")
def check_all_run():
    """The one tier-1 replay of every committed gate, shared by every test
    that asserts a baseline holds end to end through the CLI."""
    return run_cli("bench", "--check-all")
