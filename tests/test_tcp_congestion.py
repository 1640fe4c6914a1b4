"""Tests for the Tahoe-style congestion control extension."""

import pytest

from repro.faults import DROP, FaultPlan, FaultSpec
from repro.protocols.tcp.connection import TCPConnection
from repro.system import NectarSystem
from repro.units import ms, seconds


def rig(congestion=True, mtu=2048):
    system = NectarSystem()
    hub = system.add_hub("hub0")
    a = system.add_node(
        "cab-a", hub, 0, mtu=mtu, tcp_congestion_control=congestion
    )
    b = system.add_node(
        "cab-b", hub, 1, mtu=mtu, tcp_congestion_control=congestion
    )
    return system, a, b


class TestUnit:
    def test_slow_start_doubles(self):
        system, a, b = rig()
        conn = TCPConnection(a.tcp, 1, 2, 3, None)
        mss = a.tcp.mss
        conn.cwnd = mss
        conn.ssthresh = 8 * mss
        conn.congestion_ack(mss, mss)
        assert conn.cwnd == 2 * mss
        conn.congestion_ack(2 * mss, mss)  # capped at +1 MSS per ACK
        assert conn.cwnd == 3 * mss

    def test_congestion_avoidance_linear(self):
        system, a, b = rig()
        conn = TCPConnection(a.tcp, 1, 2, 3, None)
        mss = a.tcp.mss
        conn.cwnd = 8 * mss
        conn.ssthresh = 4 * mss  # already above threshold
        before = conn.cwnd
        conn.congestion_ack(mss, mss)
        # Additive increase: well under one MSS per ACK.
        assert 0 < conn.cwnd - before <= mss // 4

    def test_timeout_collapses_window(self):
        system, a, b = rig()
        conn = TCPConnection(a.tcp, 1, 2, 3, None)
        mss = a.tcp.mss
        conn.cwnd = 10 * mss
        conn.snd_wnd = 32 * 1024
        conn.congestion_timeout(mss)
        assert conn.cwnd == mss
        assert conn.ssthresh >= 2 * mss

    def test_disabled_means_inert(self):
        system, a, b = rig(congestion=False)
        conn = TCPConnection(a.tcp, 1, 2, 3, None)
        conn.congestion_ack(1000, a.tcp.mss)
        conn.congestion_timeout(a.tcp.mss)
        assert conn.cwnd == 0
        assert conn.effective_window == conn.snd_wnd


class TestEndToEnd:
    def _transfer(self, system, a, b, payload):
        server_inbox = b.runtime.mailbox("srv")
        b.tcp.listen(7000, lambda conn: server_inbox)
        done = system.sim.event()
        state = {}

        def client():
            inbox = a.runtime.mailbox("cli")
            conn = yield from a.tcp.connect(6000, b.ip_address, 7000, inbox)
            state["conn"] = conn
            yield from a.tcp.send_direct(conn, payload)

        def collector():
            received = 0
            while received < len(payload):
                msg = yield from server_inbox.begin_get()
                received += msg.size
                yield from server_inbox.end_get(msg)
            done.succeed()

        a.runtime.fork_application(client(), "c")
        b.runtime.fork_application(collector(), "s")
        system.run_until(done, limit=seconds(120))
        return state["conn"]

    def test_clean_transfer_grows_cwnd(self):
        system, a, b = rig()
        payload = b"g" * 40_000  # ~20 MSS segments
        conn = self._transfer(system, a, b, payload)
        assert conn.cwnd > 4 * a.tcp.mss

    def test_losses_shrink_cwnd_but_transfer_completes(self):
        system, a, b = rig()
        system.attach_fault_plan(FaultPlan(3, [FaultSpec(DROP, probability=0.1)]))
        payload = b"l" * 30_000
        conn = self._transfer(system, a, b, payload)
        assert a.runtime.stats.value("tcp_retransmits") > 0
        # After a timeout the window restarted from one MSS; it may have
        # regrown a little, but the collapse left its mark on ssthresh.
        assert conn.ssthresh < 32 * 1024
