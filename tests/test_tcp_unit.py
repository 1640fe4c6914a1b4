"""Unit-level TCP tests: sequence arithmetic, TCB behaviour, edge paths."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import DROP, FaultPlan, FaultSpec
from repro.protocols.tcp.connection import (
    SEQ_MOD,
    TCPState,
    seq_add,
    seq_ge,
    seq_gt,
    seq_le,
    seq_lt,
)
from repro.protocols.tcp.tcp import TIMER_TICK_NS
from repro.system import NectarSystem
from repro.units import ms, seconds


class TestSequenceArithmetic:
    def test_simple_ordering(self):
        assert seq_lt(1, 2)
        assert seq_gt(2, 1)
        assert seq_le(2, 2)
        assert seq_ge(2, 2)

    def test_wraparound(self):
        near_top = SEQ_MOD - 10
        wrapped = seq_add(near_top, 20)
        assert wrapped == 10
        assert seq_lt(near_top, wrapped)
        assert seq_gt(wrapped, near_top)

    @given(
        base=st.integers(min_value=0, max_value=SEQ_MOD - 1),
        delta=st.integers(min_value=1, max_value=(SEQ_MOD >> 1) - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_add_preserves_order_property(self, base, delta):
        ahead = seq_add(base, delta)
        assert seq_lt(base, ahead)
        assert seq_gt(ahead, base)
        assert not seq_lt(ahead, base)


@pytest.fixture
def rig():
    system = NectarSystem()
    hub = system.add_hub("hub0")
    a = system.add_node("cab-a", hub, 0)
    b = system.add_node("cab-b", hub, 1)
    return system, a, b


class TestConnectionEdges:
    def test_connect_timeout_aborts_after_retries(self, rig):
        """SYNs into a black hole: retransmission limit ends the attempt."""
        system, a, b = rig

        system.attach_fault_plan(FaultPlan(1, [FaultSpec(DROP)]))  # every frame
        done = system.sim.event()

        def client():
            inbox = a.runtime.mailbox("inbox")
            try:
                yield from a.tcp.connect(6000, b.ip_address, 7000, inbox)
            except Exception as exc:
                done.succeed(str(exc))

        a.runtime.fork_application(client(), "c")
        message = system.run_until(done, limit=seconds(120))
        assert "retransmission limit" in message
        assert a.runtime.stats.value("tcp_retransmits") >= 8
        assert not a.tcp.connections

    def test_rtt_estimation_converges(self, rig):
        system, a, b = rig
        done = system.sim.event()
        server_inbox = b.runtime.mailbox("srv")
        b.tcp.listen(7000, lambda conn: server_inbox)
        state = {}

        def client():
            inbox = a.runtime.mailbox("cli")
            conn = yield from a.tcp.connect(6000, b.ip_address, 7000, inbox)
            for _ in range(10):
                yield from a.tcp.send_direct(conn, b"y" * 512)
                yield from a.runtime.ops.sleep(ms(1))
            state["srtt"] = conn.rtt.srtt_ns
            state["rto"] = conn.rtt.rto_ns
            done.succeed()

        a.runtime.fork_application(client(), "c")
        system.run_until(done, limit=seconds(60))
        # RTT on this rig is a few hundred us; the estimator must be in
        # that realm, and the RTO above it.
        assert state["srtt"] is not None
        assert 20_000 < state["srtt"] < 2_000_000
        assert state["rto"] >= state["srtt"]

    def test_zero_window_probe_recovers(self, rig):
        """A receiver that stops consuming re-opens the window later."""
        system, a, b = rig
        server_inbox = b.runtime.mailbox("srv")
        b.tcp.listen(7000, lambda conn: server_inbox)
        done = system.sim.event()
        total = 128 * 1024  # bigger than the 32 KB advertised window

        def client():
            inbox = a.runtime.mailbox("cli")
            conn = yield from a.tcp.connect(6000, b.ip_address, 7000, inbox)
            yield from a.tcp.send_direct(conn, b"w" * total)

        def lazy_server():
            received = 0
            first = True
            while received < total:
                msg = yield from server_inbox.begin_get()
                received += msg.size
                yield from server_inbox.end_get(msg)
                if first:
                    # Stall long enough for the window to close.
                    first = False
                    yield from b.runtime.ops.sleep(ms(200))
            done.succeed(received)

        a.runtime.fork_application(client(), "c")
        b.runtime.fork_application(lazy_server(), "s")
        assert system.run_until(done, limit=seconds(120)) == total

    def test_listener_port_collision(self, rig):
        _system, _a, b = rig
        b.tcp.listen(7000, lambda conn: None)
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError, match="already listening"):
            b.tcp.listen(7000, lambda conn: None)

    def test_send_on_closed_connection_rejected(self, rig):
        system, a, b = rig
        server_inbox = b.runtime.mailbox("srv")
        b.tcp.listen(7000, lambda conn: server_inbox)
        done = system.sim.event()

        def client():
            inbox = a.runtime.mailbox("cli")
            conn = yield from a.tcp.connect(6000, b.ip_address, 7000, inbox)
            yield from a.tcp.close(conn)
            try:
                yield from a.tcp.send(conn, b"too late")
            except Exception as exc:
                done.succeed(str(exc))

        a.runtime.fork_application(client(), "c")
        assert "cannot send" in system.run_until(done, limit=seconds(30))

    def test_duplicate_connect_rejected(self, rig):
        system, a, b = rig
        server_inbox = b.runtime.mailbox("srv")
        b.tcp.listen(7000, lambda conn: server_inbox)
        done = system.sim.event()

        def client():
            inbox = a.runtime.mailbox("cli")
            yield from a.tcp.connect(6000, b.ip_address, 7000, inbox)
            try:
                yield from a.tcp.connect(6000, b.ip_address, 7000, inbox)
            except Exception as exc:
                done.succeed(str(exc))

        a.runtime.fork_application(client(), "c")
        assert "already exists" in system.run_until(done, limit=seconds(30))

    def test_window_advertised_shrinks_with_unconsumed_data(self, rig):
        system, a, b = rig
        server_inbox = b.runtime.mailbox("srv")
        listener = b.tcp.listen(7000, lambda conn: server_inbox)
        done = system.sim.event()

        def client():
            inbox = a.runtime.mailbox("cli")
            conn = yield from a.tcp.connect(6000, b.ip_address, 7000, inbox)
            yield from a.tcp.send_direct(conn, b"d" * 8000)
            yield from a.runtime.ops.sleep(ms(50))
            # The receiver consumed nothing, so the window it advertised
            # (tracked as our snd_wnd) must have shrunk by ~8000.
            done.succeed(conn.snd_wnd)

        a.runtime.fork_application(client(), "c")
        window = system.run_until(done, limit=seconds(30))
        assert window <= 32 * 1024 - 7000
