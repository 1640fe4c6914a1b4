"""The one retransmission timer every reliable transport uses.

RFC 6298's Jacobson/Karels estimator: an RTO of ``srtt + 4 * rttvar``
clamped to ``[MIN_RTO_NS, MAX_RTO_NS]``, the floor until the first sample,
doubled on every timeout, and sampled only from an exchange that was never
retransmitted (Karn's rule: an answer to a retransmission cannot say which
copy it answers).  TCP keeps one per connection, RMP one per channel,
request-response one per server it calls, NMP one per session (the
sender's SYNC rounds are the group RTT, a member's NACK-to-repair round
trips drive its NACK timers).  RMP and request-response retry through
:meth:`RetransmitTimer.exchange`; NMP, which holds its session mutex
across the send, waits on :meth:`RetransmitTimer.wait` in loops of its own.

The floor is RFC 6298's cure for spurious timeouts, scaled to this fabric:
a fault-free 64-CAB fleet under bulk TCP queues small frames behind 32 KB
windows at HUB output ports, and round trips that usually take 0.4 ms jump
to ~40 ms too suddenly for ``srtt + 4 * rttvar`` to follow.  A 10 ms floor
still retransmitted spuriously on 23 of 40 seeds; 50 ms never does
(``tests/test_rto.py``, DESIGN.md §5.6).
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.units import ms

__all__ = ["MAX_RTO_NS", "MIN_RTO_NS", "RetransmitTimer"]

#: The RTO before the first sample, and the clamp on every later one.
MIN_RTO_NS = ms(50)
MAX_RTO_NS = ms(2_000)


class RetransmitTimer:
    """Smoothed RTT, RTT variance and the retransmission timeout they set."""

    __slots__ = ("srtt_ns", "rttvar_ns", "rto_ns")

    def __init__(self) -> None:
        self.srtt_ns: Optional[int] = None
        self.rttvar_ns = 0
        self.rto_ns = MIN_RTO_NS

    def sample(self, rtt_ns: int) -> None:
        """Fold in one round trip of a never-retransmitted exchange."""
        if self.srtt_ns is None:
            self.srtt_ns = rtt_ns
            self.rttvar_ns = rtt_ns // 2
        else:
            delta = rtt_ns - self.srtt_ns
            self.srtt_ns += delta // 8
            self.rttvar_ns += (abs(delta) - self.rttvar_ns) // 4
        rto = self.srtt_ns + 4 * self.rttvar_ns
        self.rto_ns = max(MIN_RTO_NS, min(MAX_RTO_NS, rto))

    def backoff(self) -> None:
        """A timeout fired: double the RTO (capped) until the next sample."""
        self.rto_ns = min(MAX_RTO_NS, self.rto_ns * 2)

    def wait(
        self, ops, cond, mutex, done: Callable[[], bool], first_try: bool
    ) -> Generator:
        """Thread-context: ``ops.wait_until`` one RTO for the answer to what
        was just sent (``mutex`` held); returns ``done()``.  A timeout backs
        the timer off, an answer to a first try is a sample."""
        sim = ops.cpu.sim
        sent_ns = sim.now
        answered = yield from ops.wait_until(cond, mutex, done, sent_ns + self.rto_ns)
        if not answered:
            self.backoff()
        elif first_try:
            self.sample(sim.now - sent_ns)
        return answered

    def exchange(
        self,
        ops,
        cond,
        mutex,
        done: Callable[[], bool],
        send: Callable[[int], Generator],
        max_tries: int,
    ) -> Generator:
        """Thread-context: the bounded exchange of RMP and request-response.

        Runs ``send(try_number)`` (1, 2, ...), then waits one RTO under
        ``mutex`` for ``done()``, backing off and sending again until it is
        answered or ``max_tries`` transmissions went unanswered.  Returns
        whether it was answered; the caller raises its own error."""
        for tries in range(1, max_tries + 1):
            yield from send(tries)
            yield from ops.lock(mutex)
            answered = yield from self.wait(ops, cond, mutex, done, tries == 1)
            yield from ops.unlock(mutex)
            if answered:
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RetransmitTimer srtt={self.srtt_ns} rto={self.rto_ns}>"
