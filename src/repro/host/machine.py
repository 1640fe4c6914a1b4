"""Host machines: a Sun-4-class CPU running user processes.

A :class:`Host` reuses the generic CPU execution engine with host-appropriate
costs (UNIX context switches are much heavier than CAB thread switches).
User processes are generator coroutines exactly like CAB threads; the CAB
device driver (:mod:`repro.host.driver`) gives them access to CAB memory.

:class:`HostedNode` is the common pairing used everywhere in the paper: one
host plus its CAB, joined by a VME bus and the device driver.
"""

from __future__ import annotations

from typing import Generator

from repro.cab.cpu import CPU, PRIORITY_APPLICATION, TCB
from repro.hw.vme import VMEBus
from repro.model.costs import CostModel
from repro.sim.core import Simulator
from repro.system import NectarNode, NectarSystem
from repro.telemetry.metrics import CounterScope

__all__ = ["Host", "HostedNode"]


class Host:
    """One host computer."""

    def __init__(self, sim: Simulator, costs: CostModel, name: str):
        self.sim = sim
        self.costs = costs
        self.name = name
        self.cpu = CPU(
            sim,
            name=f"{name}.cpu",
            context_switch_ns=costs.host_context_switch_ns,
            dispatch_ns=costs.host_context_switch_ns // 8,
            interrupt_entry_ns=costs.host_interrupt_ns // 2,
            interrupt_exit_ns=costs.host_interrupt_ns // 2,
            timer_handler_ns=costs.host_timer_handler_ns,
        )
        self.stats = CounterScope()

    def fork_process(self, gen: Generator, name: str = "proc") -> TCB:
        """Start a user process."""
        return self.cpu.add_thread(gen, priority=PRIORITY_APPLICATION, name=name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name}>"


class HostedNode:
    """A host + CAB pair joined by a VME bus and the CAB device driver."""

    def __init__(self, system: NectarSystem, node: NectarNode):
        from repro.host.driver import CABDriver  # avoid import cycle

        self.system = system
        self.node = node
        self.host = Host(system.sim, system.costs, f"host-{node.name}")
        system.metrics.mount(self.host.name, self.host.stats)
        self.host.stats.mount("cpu", self.host.cpu.stats)
        self.vme = VMEBus(system.sim, system.costs, name=f"vme-{node.name}")
        node.runtime.stats.mount("vme", self.vme.stats)
        self.driver = CABDriver(self.host, node, self.vme)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HostedNode {self.host.name} / {self.node.name}>"
