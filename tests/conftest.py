"""Test-suite configuration: fully deterministic property testing.

The simulation itself is deterministic; derandomizing hypothesis makes the
*suite* deterministic too, so a green run is bit-for-bit repeatable.
"""

import pathlib
import subprocess
import sys

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

REPO = pathlib.Path(__file__).resolve().parent.parent
CLI_ENV = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"}


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
