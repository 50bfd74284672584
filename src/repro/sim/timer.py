"""Linux ``timer_list``-style timers and jiffy arithmetic.

The kernel protocol code in the paper drives everything off four timers
(transmit, retransmit, update, keepalive) managed with ``mod_timer`` /
``del_timer``.  :class:`Timer` reproduces that interface on top of the
event engine so the protocol modules read like their kernel
counterparts.

A jiffy is 10 ms (Linux 2.1 on x86, HZ=100), the granularity at which
the H-RMC transmitter runs.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.engine import Simulator

__all__ = ["Timer", "JIFFY_US", "jiffies_to_us", "us_to_jiffies"]

JIFFY_US = 10_000  # 10 ms


def jiffies_to_us(jiffies: int) -> int:
    return int(jiffies) * JIFFY_US


def us_to_jiffies(us: int) -> int:
    return int(us) // JIFFY_US


class Timer:
    """A restartable one-shot timer.

    Mirrors the kernel API the paper's code uses:

    * :meth:`mod_timer` -- (re)arm to fire at an absolute time.
    * :meth:`mod_after` -- (re)arm relative to now.
    * :meth:`del_timer` -- disarm.
    * :attr:`pending` -- armed and not yet fired.

    The callback receives no arguments (bind state via the constructor),
    matching ``timer_list.function(data)`` usage where ``data`` is the
    socket.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], None],
                 name: str = ""):
        self._sim = sim
        self._callback = callback
        self._entry = None
        self.name = name

    @property
    def pending(self) -> bool:
        # engine entries are [time, order, callback, args];
        # a cancelled one has its callback cleared
        return self._entry is not None and self._entry[2] is not None

    @property
    def expires(self) -> int | None:
        """Absolute expiry time in us, or None if not armed."""
        if self.pending:
            return self._entry[0]
        return None

    def mod_timer(self, expires: int) -> None:
        """Arm (or re-arm) the timer to fire at absolute time ``expires``."""
        self.del_timer()
        self._entry = self._sim.call_at(max(expires, self._sim.now), self._fire)

    def mod_after(self, delay: int) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` us from now."""
        self.mod_timer(self._sim.now + max(0, int(delay)))

    def del_timer(self) -> bool:
        """Disarm.  Returns True if the timer was pending."""
        if self.pending:
            self._sim.cancel(self._entry)
            self._entry = None
            return True
        self._entry = None
        return False

    def _fire(self) -> None:
        self._entry = None
        self._callback()
