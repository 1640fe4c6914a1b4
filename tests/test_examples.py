"""Smoke tests: every example script runs to completion and prints sense."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "host B received" in out
    assert "one-way host-to-host latency" in out


def test_task_queue():
    out = run_example("task_queue.py")
    assert "factored 12 numbers" in out
    assert "4757=67" in out


def test_tcp_file_transfer():
    out = run_example("tcp_file_transfer.py")
    assert "protocol engine" in out
    assert "network-device mode" in out
    assert "Ethernet baseline" in out


def test_multi_hub_ping():
    out = run_example("multi_hub_ping.py")
    assert "source route cab-west -> cab-east: output ports (15, 15, 1)" in out
    assert "multi-hop penalty:" in out

