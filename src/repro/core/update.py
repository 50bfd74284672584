"""Dynamic update-timer policy (paper sections 3 and 4.3).

Each update period the receiver sends an UPDATE carrying its next
expected sequence number.  The period starts at 50 jiffies and adapts:
if any PROBE arrived during the period the sender evidently lacked
state, so the period shrinks by one jiffy; otherwise it grows by one
jiffy.  Linear steps keep the period from oscillating; bounds keep it
sane.  In high-loss environments NAKs keep the sender informed, probes
stay rare, and the period drifts up; in quiet environments probes pull
it down until updates pre-empt the probes.
"""

from __future__ import annotations

from repro.sim.timer import JIFFY_US

__all__ = ["UpdatePolicy"]


class UpdatePolicy:
    def __init__(self, *, initial_jiffies: int, min_jiffies: int,
                 max_jiffies: int, step_jiffies: int = 1,
                 dynamic: bool = True):
        if not (min_jiffies <= initial_jiffies <= max_jiffies):
            raise ValueError("initial period outside bounds")
        self.period_jiffies = int(initial_jiffies)
        self.min_jiffies = int(min_jiffies)
        self.max_jiffies = int(max_jiffies)
        self.step = int(step_jiffies)
        self.dynamic = dynamic
        self.probe_seen = False
        self.adjust_downs = 0
        self.adjust_ups = 0

    @property
    def period_us(self) -> int:
        return self.period_jiffies * JIFFY_US

    def note_probe(self) -> None:
        self.probe_seen = True

    def end_period(self) -> int:
        """Close the current period: adjust (if dynamic) and return the
        next period in microseconds."""
        if self.dynamic:
            if self.probe_seen:
                if self.period_jiffies > self.min_jiffies:
                    self.period_jiffies = max(
                        self.min_jiffies, self.period_jiffies - self.step)
                    self.adjust_downs += 1
            else:
                if self.period_jiffies < self.max_jiffies:
                    self.period_jiffies = min(
                        self.max_jiffies, self.period_jiffies + self.step)
                    self.adjust_ups += 1
        self.probe_seen = False
        return self.period_us
