"""Round-trip-time estimation (Karn & Partridge / Jacobson).

The sender estimates the round-trip time to the *most distant* receiver
(paper section 2) and keeps updating it from feedback: each member owns
an estimator, and ``MemberTable.rtt_us`` is the worst.  Samples come
only from unambiguous exchanges, per Karn's rule: a JOIN that names a
first-transmission data packet, or a PROBE answered before any
re-probe.  Smoothing follows Jacobson: ``srtt`` and ``rttvar`` with the
usual 1/8 and 1/4 gains.
"""

from __future__ import annotations

__all__ = ["RttEstimator"]


class RttEstimator:
    """Single-flow smoothed RTT with variance (Jacobson/Karn)."""

    ALPHA = 0.125
    BETA = 0.25

    def __init__(self, initial_us: int, min_us: int = 1_000):
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

