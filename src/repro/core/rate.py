"""Rate-based flow control (paper section 2, "Flow Control").

The sender maintains a current transmission rate, advertised in every
outgoing packet.  Dynamics mirror TCP's congestion control translated
into the rate domain (the paper cites Jacobson's slow start and
congestion avoidance):

* at connection start, and after any *urgent* rate request, the rate is
  set to a minimum and grows by slow start (doubling per RTT) up to the
  slow-start threshold, then linearly (one MSS-per-RTT worth of rate
  each RTT);
* a NAK or a *warning* rate request halves the rate and re-enters
  linear growth (at most one cut per RTT so a burst of feedback counts
  once);
* an urgent request additionally stops forward transmission entirely
  for two RTTs.

All rates are in bytes/second.  :meth:`allowance` converts elapsed wall
time into a transmission budget, applying growth continuously so the
per-jiffy transmitter sees smooth rate evolution.
"""

from __future__ import annotations

import enum

from repro.sim.timer import JIFFY_US

__all__ = ["RateController", "RatePhase"]


class RatePhase(enum.Enum):
    SLOW_START = "slow-start"
    CONG_AVOID = "congestion-avoidance"


class RateController:
    def __init__(self, *, min_rate: int, max_rate: int, mss: int):
        # rates in bytes/second
        self.min_rate = float(min_rate)
        self.max_rate = float(max_rate)
        self.mss = int(mss)
        self.rate = self.min_rate
        self.ssthresh = self.max_rate
        self.phase = RatePhase.SLOW_START
        self.stopped_until: int = 0
        self._last_cut_us: int = -(10 ** 12)

    # -- queries -----------------------------------------------------------

    @property
    def rate_bps(self) -> int:
        return int(self.rate)

    def is_stopped(self, now_us: int) -> bool:
        return now_us < self.stopped_until

    # -- growth ---------------------------------------------------------

    def grow(self, elapsed_us: int, rtt_us: int) -> None:
        """Advance the rate by ``elapsed_us`` of loss-free progress.

        The control timescale is clamped to a jiffy: the kernel's rate
        timer cannot react faster than its tick, so neither growth nor
        cut damping runs on sub-jiffy RTTs.
        """
        if elapsed_us <= 0:
            return
        rtt_us = max(rtt_us, JIFFY_US)
        rtts = elapsed_us / max(1, rtt_us)
        if self.phase is RatePhase.SLOW_START:
            self.rate = min(self.rate * (2.0 ** min(rtts, 30.0)),
                            self.ssthresh)
            if self.rate >= self.ssthresh:
                self.phase = RatePhase.CONG_AVOID
        if self.phase is RatePhase.CONG_AVOID:
            # one mss of window per RTT translates to mss/rtt of rate per RTT
            step_per_rtt = self.mss / (max(1, rtt_us) / 1e6)
            self.rate += step_per_rtt * rtts
        self.rate = min(self.rate, self.max_rate)

    def allowance(self, elapsed_us: int, rtt_us: int, now_us: int) -> float:
        """Grow, then return the byte budget earned over ``elapsed_us``.

        Returns 0 while stopped by an urgent rate request.
        """
        if self.is_stopped(now_us):
            return 0.0
        self.grow(elapsed_us, rtt_us)
        return self.rate * (elapsed_us / 1e6)

    # -- feedback reactions ----------------------------------------------

    def on_loss_signal(self, now_us: int, rtt_us: int) -> bool:
        """NAK or warning rate request: halve, go linear.  Returns True
        when a cut was applied (at most one per RTT, no faster than one
        per jiffy)."""
        if now_us - self._last_cut_us < max(rtt_us, JIFFY_US):
            return False
        self._last_cut_us = now_us
        self.ssthresh = max(self.min_rate, self.rate / 2.0)
        self.rate = max(self.min_rate, self.rate / 2.0)
        self.phase = RatePhase.CONG_AVOID
        return True

    def on_urgent(self, now_us: int, rtt_us: int, stop_rtts: int = 2) -> None:
        """Urgent rate request: stop for ``stop_rtts`` RTTs, then slow
        start again from the minimum rate."""
        self.stopped_until = max(self.stopped_until,
                                 now_us + stop_rtts * rtt_us)
        self.ssthresh = max(self.min_rate, self.rate / 2.0)
        self.rate = self.min_rate
        self.phase = RatePhase.SLOW_START
        self._last_cut_us = now_us

    def on_suggestion(self, suggested_bps: int) -> None:
        """A receiver-computed rate suggestion caps the current rate."""
        if suggested_bps > 0:
            self.rate = min(self.rate,
                            max(self.min_rate, float(suggested_bps)))
