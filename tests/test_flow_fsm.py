"""NP30x FSM-pass tests: extraction of enum- and constant-style machines
plus the unreachable / no-exit / unguarded-wait checks."""

import ast
import textwrap

from repro.analysis.fsm import FsmPass


def fsm_pass(source, path="src/repro/protocols/fixture.py"):
    return FsmPass([(path, ast.parse(textwrap.dedent(source)))])


def codes(findings):
    return [f.code for f in findings]


# --------------------------------------------------------------- enum style ----


def test_declared_but_never_entered_state_is_np301():
    findings = fsm_pass(
        """
        import enum

        class PortState(enum.Enum):
            IDLE = 1
            ACTIVE = 2
            ORPHAN = 3

        class Port:
            def step_timer(self):
                if self.state == PortState.IDLE:
                    self.state = PortState.ACTIVE
                if self.state == PortState.ACTIVE:
                    self.state = PortState.IDLE
        """
    ).run()
    assert codes(findings) == ["NP301"]
    assert "ORPHAN" in findings[0].message
    assert findings[0].line == 7  # the member declaration line


def test_entered_but_never_tested_state_is_np302():
    findings = fsm_pass(
        """
        import enum

        class RingState(enum.Enum):
            IDLE = 1
            STUCK = 2

        class Ring:
            def step_timer(self):
                if self.state == RingState.IDLE:
                    self.state = RingState.STUCK
        """
    ).run()
    assert codes(findings) == ["NP302"]
    assert "STUCK" in findings[0].message


def test_terminal_states_need_no_exit():
    findings = fsm_pass(
        """
        import enum

        class WireState(enum.Enum):
            IDLE = 1
            CLOSED = 2

        class Wire:
            def step_timer(self):
                if self.state == WireState.IDLE:
                    self.state = WireState.CLOSED
        """
    ).run()
    assert findings == []


def test_rx_only_wait_state_without_timer_cover_is_np303():
    findings = fsm_pass(
        """
        import enum

        class FlowState(enum.Enum):
            IDLE = 1
            WAIT_ACK = 2

        class Flow:
            def send(self, seg):
                if self.state == FlowState.IDLE:
                    self.state = FlowState.WAIT_ACK

            def on_input(self, seg):
                if self.state == FlowState.WAIT_ACK:
                    self.state = FlowState.IDLE
        """
    ).run()
    assert codes(findings) == ["NP303"]
    assert "WAIT_ACK" in findings[0].message


def test_timer_path_covers_the_wait_state():
    findings = fsm_pass(
        """
        import enum

        class FlowState(enum.Enum):
            IDLE = 1
            WAIT_ACK = 2

        class Flow:
            def send(self, seg):
                if self.state == FlowState.IDLE:
                    self.state = FlowState.WAIT_ACK

            def on_input(self, seg):
                if self.state == FlowState.WAIT_ACK:
                    self.state = FlowState.IDLE

            def retransmit_timeout(self):
                if self.state == FlowState.WAIT_ACK:
                    self.state = FlowState.IDLE
        """
    ).run()
    assert findings == []


def test_helper_mediated_transition_counts_as_entry_and_cover():
    # set_state(ChanState.OPEN): the member never appears in a bare
    # assignment or compare, but the machine must not call it dead.
    findings = fsm_pass(
        """
        import enum

        class ChanState(enum.Enum):
            IDLE = 1
            OPEN = 2

        class Chan:
            def begin(self):
                self.set_state(ChanState.OPEN)

            def set_state(self, value):
                self.state = value
        """
    ).run()
    assert findings == []


def test_extraction_lifts_members_initial_and_guarded_edges():
    machines = fsm_pass(
        """
        import enum

        class FlowState(enum.Enum):
            IDLE = 1
            WAIT_ACK = 2

        class Flow:
            def __init__(self):
                self.state = FlowState.IDLE

            def send_timer(self, seg):
                if self.state == FlowState.IDLE:
                    self.state = FlowState.WAIT_ACK

            def on_input(self, seg):
                if self.state == FlowState.WAIT_ACK:
                    self.state = FlowState.IDLE
        """
    ).extract()
    assert len(machines) == 1
    machine = machines[0]
    assert machine.kind == "enum"
    assert machine.members == ["IDLE", "WAIT_ACK"]
    assert machine.name == "repro.protocols.fixture.FlowState"
    assert "IDLE" in machine.initial
    # Each transition is an entry site in one function and a test site
    # of its source state in the same one.
    entered = {
        (member, site.qname.rsplit(".", 1)[-1])
        for member, sites in machine.entries.items()
        for site in sites
    }
    tested = {
        (member, site.qname.rsplit(".", 1)[-1])
        for member, sites in machine.tests.items()
        for site in sites
    }
    assert ("WAIT_ACK", "send_timer") in entered
    assert ("IDLE", "send_timer") in tested
    assert ("IDLE", "on_input") in entered
    assert ("WAIT_ACK", "on_input") in tested


# ----------------------------------------------------------- constant style ----


def test_constant_style_machine_flags_tested_but_never_entered():
    findings = fsm_pass(
        """
        _IDLE = "idle"
        _BUSY = "busy"
        _DRAIN = "drain"

        class Pump:
            def __init__(self):
                self.state = _IDLE

            def kick_timer(self):
                if self.state == _IDLE:
                    self.state = _BUSY
                elif self.state == _BUSY:
                    self.state = _IDLE

            def is_draining(self):
                return self.state == _DRAIN
        """
    ).run()
    assert codes(findings) == ["NP301"]
    assert "_DRAIN" in findings[0].message


def test_constant_style_round_trip_is_clean():
    findings = fsm_pass(
        """
        _IDLE = "idle"
        _BUSY = "busy"

        class Pump:
            def __init__(self):
                self.state = _IDLE

            def kick_timer(self):
                if self.state == _IDLE:
                    self.state = _BUSY
                elif self.state == _BUSY:
                    self.state = _IDLE
        """
    ).run()
    assert findings == []


def test_non_state_string_tags_are_not_lifted_as_machines():
    # Fault-kind vocabularies assigned to .kind are configuration, not a
    # protocol machine; lifting them would spray NP301 over plain tags.
    machines = fsm_pass(
        """
        _STALL = "stall"
        _SQUEEZE = "squeeze"

        class Fault:
            def __init__(self):
                self.kind = _STALL

            def flip(self):
                if self.kind == _STALL:
                    self.kind = _SQUEEZE
        """
    ).extract()
    assert machines == []
