"""Round-trip-time estimation (Karn & Partridge / Jacobson).

The sender estimates the round-trip time to the *most distant* receiver
(paper section 2) and keeps updating it from feedback.  Samples come
only from unambiguous exchanges, per Karn's rule: a JOIN that names a
first-transmission data packet, or a PROBE answered before any
re-probe.  Smoothing follows Jacobson: ``srtt`` and ``rttvar`` with the
usual 1/8 and 1/4 gains.
"""

from __future__ import annotations

__all__ = ["RttEstimator", "WorstRtt"]


class RttEstimator:
    """Single-flow smoothed RTT with variance (Jacobson/Karn)."""

    ALPHA = 0.125
    BETA = 0.25

    def __init__(self, initial_us: int, min_us: int = 1_000):
        self._initial = int(initial_us)
        self._min = int(min_us)
        self.srtt: float = float(initial_us)
        self.rttvar: float = initial_us / 2.0
        self.samples = 0

    def sample(self, rtt_us: int) -> None:
        """Feed one unambiguous RTT measurement."""
        rtt = max(self._min, int(rtt_us))
        if self.samples == 0:
            self.srtt = float(rtt)
            self.rttvar = rtt / 2.0
        else:
            err = rtt - self.srtt
            self.srtt += self.ALPHA * err
            self.rttvar += self.BETA * (abs(err) - self.rttvar)
        self.samples += 1

    @property
    def rtt_us(self) -> int:
        return max(self._min, round(self.srtt))

    @property
    def rto_us(self) -> int:
        """Conservative retransmission-style timeout: srtt + 4*rttvar."""
        return max(self._min, round(self.srtt + 4.0 * self.rttvar))


class WorstRtt:
    """Tracks the worst (largest) smoothed RTT over all receivers.

    Each receiver gets its own estimator keyed by address; the protocol
    reads :attr:`rtt_us` = max over the sampled receivers (the initial
    estimate until one is).  :meth:`forget` drops a departed receiver's
    estimator, so when the worst receiver leaves the maximum falls at
    once to the worst of those that remain; there is no decay.  An
    estimate moves only when its member is sampled, so :meth:`sample`
    and :meth:`forget` recompute the maximum and a read is a value.
    """

    def __init__(self, initial_us: int, min_us: int = 1_000):
        self._initial = int(initial_us)
        self._min = int(min_us)
        self._per_member: dict[str, RttEstimator] = {}
        self.rtt_us = self._initial

    def sample(self, member_addr: str, rtt_us: int) -> None:
        est = self._per_member.get(member_addr)
        if est is None:
            est = RttEstimator(self._initial, self._min)
            self._per_member[member_addr] = est
        est.sample(rtt_us)
        self._recompute()

    def forget(self, member_addr: str) -> None:
        if self._per_member.pop(member_addr, None) is not None:
            self._recompute()

    def _recompute(self) -> None:
        sampled = [e.rtt_us for e in self._per_member.values() if e.samples]
        self.rtt_us = max(sampled) if sampled else self._initial
