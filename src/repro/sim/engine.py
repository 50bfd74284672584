"""Core discrete-event engine.

Time is kept as an integer number of microseconds.  Integer time makes
simulations exactly reproducible (no floating-point drift in event
ordering) and is fine-grained enough for the paper's constants (the
smallest delay in the paper is the 10 us per-packet protocol cost; the
coarsest is the 2 s keepalive cap).

Events scheduled for the same instant fire in FIFO order of scheduling,
which gives deterministic traces for a fixed seed.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

__all__ = ["Simulator", "SimulationError", "US_PER_MS", "US_PER_SEC"]

US_PER_MS = 1_000
US_PER_SEC = 1_000_000


class SimulationError(RuntimeError):
    """Raised for scheduling errors (e.g. scheduling into the past) and
    for a callback that moved the clock."""


class Simulator:
    """Event-driven simulator with an integer microsecond clock.

    Usage::

        sim = Simulator()
        sim.call_at(100, print, "hello")
        sim.call_after(50, print, "first")
        sim.run()
    """

    #: heap compaction threshold: rebuild once more than half the heap
    #: is cancelled entries (and it is big enough to matter)
    COMPACT_MIN = 64

    def __init__(self) -> None:
        #: current simulated time in microseconds -- a plain attribute
        #: (read on every packet); only :meth:`run` assigns it, and
        #: :meth:`run` raises if a firing leaves it anywhere but where
        #: that firing was scheduled
        self.now: int = 0
        self._heap: list[list] = []
        self._order: int = 0
        self._live: int = 0  # non-cancelled entries in the heap
        self._dead: int = 0  # cancelled entries still in the heap
        self._running = False
        self.events_processed: int = 0
        self.last_event_us: int = 0  # when the last event fired
        self.compactions: int = 0
        # the event hook (``None`` on a bare run): a watch has an
        # ``execute(callback, args, sim_dt_us)`` that runs each
        # non-cancelled firing, where ``sim_dt_us`` is the virtual-clock
        # advance that firing made.
        # Cancelled entries never reach it and compaction only discards
        # entries that will never fire, so what it sees is exact.
        self.watch = None
        # the packet seam (see repro.trace.tracer): every segment sent,
        # received or dropped is reported as ``tap(fact, where, pkt)``
        # while the run's one tracer is attached
        self.tap = None

    def now_seconds(self) -> float:
        return self.now / US_PER_SEC

    # -- scheduling ---------------------------------------------------

    def call_at(self, when: int, callback: Callable, *args: Any) -> list:
        """Schedule ``callback(*args)`` at absolute time ``when`` (us).

        Returns the heap entry, a plain list ``[time, order, callback,
        args]``: ``order`` is unique, so heap ordering is C-level list
        comparison on the two leading ints and never reaches the
        callback.  A cancelled entry has ``callback`` set to ``None``.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at t={when} (now is {self.now})"
            )
        if type(when) is not int:
            when = int(when)
        entry = [when, self._order, callback, args]
        self._order += 1
        heapq.heappush(self._heap, entry)
        self._live += 1
        return entry

    def call_after(self, delay: int, callback: Callable, *args: Any) -> list:
        """Schedule ``callback(*args)`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self.now + int(delay), callback, *args)

    def cancel(self, entry: list) -> None:
        """Cancel a previously scheduled entry (idempotent).

        Cancellation is lazy (the entry stays in the heap until popped),
        but the heap is compacted once cancelled entries outnumber live
        ones: restartable timers re-armed every jiffy would otherwise
        accumulate dead entries for the whole run.
        """
        if entry[2] is not None:
            entry[2] = None
            self._live -= 1
            self._dead += 1
            if self._dead > self.COMPACT_MIN and self._dead > self._live:
                self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify."""
        self._heap = [e for e in self._heap if e[2] is not None]
        heapq.heapify(self._heap)
        self._dead = 0
        self.compactions += 1

    # -- execution ----------------------------------------------------

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run until the event list drains, ``until`` (us) is reached, or
        ``max_events`` callbacks have fired.  Returns the final time.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier.  A callback that leaves
        ``now`` anywhere but at its own firing time raises
        :class:`SimulationError`: the clock has one writer, this loop.
        """
        self._running = True
        # counts down to 0; None (and 0, as ever) never gets there
        budget = max_events or -1
        watch = self.watch
        heappop = heapq.heappop   # hoisted: one global lookup per run
        # the clock before each firing: the check below keeps ``now``
        # equal to the last firing's time, so it need not be re-read
        prev = self.now
        try:
            # NOTE: self._heap must be re-read every iteration -- a
            # callback may cancel enough entries to trigger _compact(),
            # which rebinds the list.
            while self._heap:
                when, _, callback, args = entry = heappop(self._heap)
                if callback is None:
                    self._dead -= 1
                    continue
                if until is not None and when > until:
                    # same (time, order) key: goes back where it was
                    heapq.heappush(self._heap, entry)
                    break
                self._live -= 1
                self.now = when
                self.events_processed += 1
                if watch is None:
                    callback(*args)
                else:
                    watch.execute(callback, args, when - prev)
                if self.now != when:
                    raise SimulationError(
                        f"{getattr(callback, '__qualname__', callback)} "
                        f"moved the clock from t={when} to t={self.now}: "
                        f"time advances only in Simulator.run")
                prev = when
                budget -= 1
                if not budget:
                    break
        finally:
            self._running = False
            self.last_event_us = self.now
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def step(self) -> bool:
        """Execute a single event.  Returns ``False`` when none remain."""
        before = self.events_processed
        self.run(max_events=1)
        return self.events_processed != before

    def pending(self) -> int:
        """Number of live (non-cancelled) scheduled events."""
        return self._live
