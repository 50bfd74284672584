"""Core discrete-event engine.

Time is kept as an integer number of microseconds.  Integer time makes
simulations exactly reproducible (no floating-point drift in event
ordering) and is fine-grained enough for the paper's constants (the
smallest delay in the paper is the 10 us per-packet protocol cost; the
coarsest is the 2 s keepalive cap).

Events scheduled for the same instant fire in FIFO order of scheduling,
which gives deterministic traces for a fixed seed.  :meth:`Simulator.run`
is the one way to advance the clock; it stops when the event list
drains, at ``until``, or when a callback raises.
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

    #: heap compaction threshold: rebuild once more than half the
    #: scheduled entries are cancelled (and there are enough to matter)
    COMPACT_MIN = 64

    def __init__(self) -> None:
        #: current simulated time in microseconds -- a plain attribute
        #: (read on every packet); only :meth:`run` assigns it, and
        #: :meth:`run` raises if a firing leaves it anywhere but where
        #: that firing was scheduled
        self.now: int = 0
        self._heap: list[list] = []
        self._order: int = 0
        # the entry last pushed onto the heap and its time: a push for
        # that time joins it as a follower (see call_at).  ``_tail_time``
        # is -1 once the tail may be gone from the heap (discarded
        # cancelled, or dropped by compaction)
        self._tail: list | None = None
        self._tail_time: int = -1
        # cancels that took effect: with the pushes (``_order``) and the
        # firings they give the live count (:meth:`pending`), so neither
        # a push nor a firing keeps one
        self._cancels: int = 0
        self._dead: int = 0  # cancelled entries not yet discarded
        self.events_processed: int = 0
        self.compactions: int = 0
        #: pushes that joined their instant's entry instead of taking a
        #: heap slot (:meth:`heap_pushes` is every other push)
        self.joins: int = 0
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
        #: the run's drop ledger: seam reason -> frames dropped for it
        #: (:meth:`drop` is the one writer)
        self.drops: dict[str, int] = {}

    def now_seconds(self) -> float:
        return self.now / US_PER_SEC

    # -- scheduling ---------------------------------------------------

    def call_at(self, when: int, callback: Callable, *args: Any) -> list:
        """Schedule ``callback(*args)`` at absolute time ``when`` (us).

        Returns the entry, a plain list ``[time, order, callback, args,
        followers]``: ``order`` is unique, so heap ordering is C-level
        list comparison on the two leading ints and never reaches the
        callback.  A cancelled or fired entry has ``callback`` set to
        ``None``.

        One heap entry per instant: a push for the time of the entry
        last pushed onto the heap (the tail) is appended to the tail's
        ``followers`` (``None`` until a second push arrives) and takes
        no heap slot -- unless that time is now and the tail has no
        callback left (it fired, or was cancelled): the push then takes
        a heap slot of its own, so an instant that is being fired never
        gains followers.  Every push takes the next ``order``, so firing
        the tail's followers after it, in list order, is the ``(time,
        order)`` order.  ``Host.cpu_run`` builds its entries by the same
        rule (DESIGN.md S1).
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at t={when} (now is {self.now})"
            )
        if type(when) is not int:
            when = int(when)
        entry = [when, self._order, callback, args, None]
        self._order += 1
        if when == self._tail_time and (
                when != self.now or self._tail[2] is not None):
            followers = self._tail[4]
            if followers is None:
                self._tail[4] = [entry]
            else:
                followers.append(entry)
            self.joins += 1
        else:
            heapq.heappush(self._heap, entry)
            self._tail = entry
            self._tail_time = when
        return entry

    def call_after(self, delay: int, callback: Callable, *args: Any) -> list:
        """Schedule ``callback(*args)`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self.now + int(delay), callback, *args)

    def cancel(self, entry: list) -> None:
        """Cancel a previously scheduled entry (idempotent; an entry
        that already fired has no callback left, so this is a no-op).

        Cancellation is lazy (the entry stays in place until its instant
        is reached), but the heap is compacted once cancelled entries
        outnumber live ones: restartable timers re-armed every jiffy
        would otherwise accumulate dead entries for the whole run.
        """
        if entry[2] is not None:
            entry[2] = None
            self._cancels += 1
            self._dead += 1
            if self._dead > self.COMPACT_MIN and self._dead > \
                    self._order - self.events_processed - self._cancels:
                self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.  A cancelled heap entry
        whose instant still has live followers hands them to the first
        of them, which takes its heap slot under its own key.  The
        instant a running :meth:`run` is firing is off the heap: its
        cancelled followers stay counted until the loop passes them."""
        heap = []
        removed = 0
        for head in self._heap:
            followers = head[4]
            if followers is not None:
                live = [e for e in followers if e[2] is not None]
                removed += len(followers) - len(live)
                if head[2] is None and live:
                    removed += 1
                    head = live[0]
                    live = live[1:]
                head[4] = live or None
            if head[2] is not None:
                heap.append(head)
            else:
                removed += 1
        heapq.heapify(heap)
        self._heap = heap
        self._dead -= removed
        self._tail_time = -1      # the tail may be gone
        self.compactions += 1

    def _requeue(self, followers: list, entry: list | None) -> None:
        """Put back the followers that a callback which raised inside
        their instant left unreached -- all of them if the head raised
        (``entry`` is None), else those after ``entry``, the follower
        that raised: the first takes a heap slot under its own key and
        carries the rest."""
        rest = followers[followers.index(entry) + 1:] \
            if entry is not None else followers
        if rest:
            nxt = rest[0]
            nxt[4] = rest[1:] or None
            heapq.heappush(self._heap, nxt)

    @staticmethod
    def _clock_moved(callback: Callable, when: int,
                     now: int) -> SimulationError:
        return SimulationError(
            f"{getattr(callback, '__qualname__', callback)} "
            f"moved the clock from t={when} to t={now}: "
            f"time advances only in Simulator.run")

    # -- execution ----------------------------------------------------

    def run(self, until: int | None = None) -> int:
        """Run until the event list drains or ``until`` (us) is reached.
        Returns the final time.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier.  A callback that leaves
        ``now`` anywhere but at its own firing time raises
        :class:`SimulationError`: the clock has one writer, this loop.
        A callback that raises stops the run inside its instant; the
        followers it did not reach stay scheduled (_requeue).
        """
        watch = self.watch
        heappop = heapq.heappop   # hoisted: one global lookup per run
        # the clock before each watched firing: the check below keeps
        # ``now`` equal to the last firing's time, so it need not be
        # re-read (a bare run has no use for it)
        prev = self.now
        # the firing instant's followers and the one being fired (None
        # while a head fires): a raise puts back the ones after it
        followers = entry = None
        try:
            # NOTE: self._heap must be re-read every iteration -- a
            # callback may cancel enough entries to trigger _compact(),
            # which rebinds the list.
            while self._heap:
                head = heappop(self._heap)
                when, _, callback, args, followers = head
                if until is not None and when > until:
                    # same (time, order) key: goes back where it was
                    heapq.heappush(self._heap, head)
                    break
                if callback is None:
                    self._dead -= 1
                    if head is self._tail:
                        self._tail_time = -1
                else:
                    head[2] = None            # fired: cancel is a no-op
                    self.now = when
                    self.events_processed += 1
                    if watch is None:
                        callback(*args)
                    else:
                        watch.execute(callback, args, when - prev)
                        prev = when
                    if self.now != when:
                        raise self._clock_moved(callback, when, self.now)
                if followers is None:
                    continue
                # The followers get a body of their own, so an instant
                # with none pays one test.  The head has no callback left
                # (fired or cancelled), so a push for ``when`` from here
                # on takes a heap slot of its own (call_at) and this list
                # no longer changes.
                for entry in followers:
                    callback = entry[2]
                    if callback is None:
                        self._dead -= 1
                        continue
                    entry[2] = None
                    self.now = when
                    self.events_processed += 1
                    if watch is None:
                        callback(*entry[3])
                    else:
                        watch.execute(callback, entry[3], when - prev)
                        prev = when
                    if self.now != when:
                        raise self._clock_moved(callback, when, self.now)
                entry = None
        except BaseException:
            if followers is not None:
                self._requeue(followers, entry)
            raise
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def drop(self, reason: str, where: str, pkt) -> None:
        """A frame dies at ``where`` for ``reason``: count it in
        :attr:`drops` and report it at the seam.  Every drop site in
        ``net/`` and ``kernel/`` makes this one call."""
        try:
            self.drops[reason] += 1
        except KeyError:
            self.drops[reason] = 1
        if self.tap is not None:
            self.tap(reason, where, pkt)

    def pending(self) -> int:
        """Number of live (non-cancelled) scheduled events."""
        return self._order - self.events_processed - self._cancels

    def heap_pushes(self) -> int:
        """Entries pushed onto the heap so far: every push that did not
        join its instant's entry."""
        return self._order - self.joins
