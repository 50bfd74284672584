"""Receiver-side NAK bookkeeping with local suppression.

The receiver keeps a list of missing byte ranges (the "Pending NAK
list" of paper Figure 9).  A NAK is sent when a range is first
detected; the NAK manager (``nak_timer``) re-sends NAKs for ranges that
remain missing, but never before the sender has had ample opportunity
to respond -- the *local NAK suppression* interval, a multiple of the
receiver's RTT estimate.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.seq import seq_geq, seq_gt, seq_leq, seq_lt, seq_sub

__all__ = ["NakRange", "NakList"]


class NakRange:
    """One missing byte range [start, end)."""

    __slots__ = ("start", "end", "last_sent_us", "tries", "created_us",
                 "local_tries")

    def __init__(self, start: int, end: int, now_us: int):
        self.start = start
        self.end = end
        self.created_us = now_us
        self.last_sent_us = -(10 ** 12)
        self.tries = 0
        self.local_tries = 0  # multicast repair requests (local recovery)

    @property
    def length(self) -> int:
        return seq_sub(self.end, self.start)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NakRange([{self.start},{self.end}) tries={self.tries})"


class NakList:
    """Ordered, disjoint set of missing ranges, and the books of their
    recovery: gaps opened (and their bytes), filled or abandoned,
    re-NAKs the suppression timer withheld, and one gap-open -> gap-fill
    lag per filled gap."""

    def __init__(self):
        self._ranges: list[NakRange] = []
        self.gaps_opened = 0
        self.gap_bytes = 0
        self.gaps_filled = 0
        self.gaps_abandoned = 0
        self.suppressed_timer = 0
        self.lags_us: list[int] = []

    def __len__(self) -> int:
        return len(self._ranges)

    def __bool__(self) -> bool:
        return bool(self._ranges)

    def __iter__(self) -> Iterator[NakRange]:
        return iter(self._ranges)

    def total_missing(self) -> int:
        return sum(r.length for r in self._ranges)

    def add_gap(self, start: int, end: int, now_us: int) -> list[NakRange]:
        """Record that [start, end) is missing.  Returns the newly
        created ranges (portions not already tracked)."""
        new: list[NakRange] = []
        ranges = self._ranges
        cursor, i = start, 0
        while i < len(ranges) and seq_lt(cursor, end):
            rng = ranges[i]
            if seq_gt(rng.end, cursor):
                if seq_geq(rng.start, end):
                    break
                if seq_lt(cursor, rng.start):   # uncovered stretch before rng
                    ranges.insert(i, NakRange(cursor, rng.start, now_us))
                    new.append(ranges[i])
                    self.gaps_opened += 1
                    self.gap_bytes += seq_sub(rng.start, cursor)
                    i += 1
                cursor = rng.end
            i += 1
        if seq_lt(cursor, end):
            ranges.insert(i, NakRange(cursor, end, now_us))
            new.append(ranges[i])
            self.gaps_opened += 1
            self.gap_bytes += seq_sub(end, cursor)
        return new

    def fill(self, start: int, end: int, now_us: int) -> None:
        """Data [start, end) arrived at ``now_us``; shrink/split/remove
        covered ranges."""
        if seq_geq(start, end):
            return
        out: list[NakRange] = []
        for rng in self._ranges:
            if seq_leq(end, rng.start) or seq_geq(start, rng.end):
                out.append(rng)  # disjoint
            elif seq_lt(end, rng.end):
                if seq_lt(rng.start, start):    # hole punched mid-range
                    left = NakRange(rng.start, start, rng.created_us)
                    left.last_sent_us = rng.last_sent_us
                    left.tries = rng.tries
                    left.local_tries = rng.local_tries
                    out.append(left)
                rng.start = end
                out.append(rng)
            elif seq_lt(rng.start, start):
                rng.end = start
                out.append(rng)
            else:
                self.gaps_filled += 1
                self.lags_us.append(now_us - rng.created_us)
        self._ranges = out

    def fill_below(self, seq: int, now_us: int, *,
                   abandon: bool = False) -> None:
        """Everything below ``seq`` is now in order: the ranges it
        closes were filled at ``now_us`` or, when a NAK_ERR moved
        ``seq`` past them (``abandon``), given up."""
        out = []
        for rng in self._ranges:
            if seq_leq(rng.end, seq):
                if abandon:
                    self.gaps_abandoned += 1
                else:
                    self.gaps_filled += 1
                    self.lags_us.append(now_us - rng.created_us)
                continue
            if seq_lt(rng.start, seq):
                rng.start = seq
            out.append(rng)
        self._ranges = out

    #: re-NAK interval growth per unanswered try, and its cap
    BACKOFF = 2.0
    MAX_INTERVAL_US = 2_000_000

    def due(self, now_us: int, suppress_interval_us: int, *,
            tick: bool = False) -> list[NakRange]:
        """Ranges whose NAK may be (re)sent under local suppression.

        The suppression interval backs off exponentially with the number
        of unanswered tries (capped), so a slow retransmission path is
        not pounded with duplicate NAKs.  At a NAK-manager ``tick``, a
        range held back is a re-NAK the timer suppressed.
        """
        out = []
        for r in self._ranges:
            interval = min(
                suppress_interval_us * (self.BACKOFF ** min(r.tries, 8)),
                self.MAX_INTERVAL_US)
            if now_us - r.last_sent_us >= interval:
                out.append(r)
            elif tick:
                self.suppressed_timer += 1
        return out

    def mark_sent(self, rng: NakRange, now_us: int) -> None:
        rng.last_sent_us = now_us
        rng.tries += 1

    def first(self) -> Optional[NakRange]:
        return self._ranges[0] if self._ranges else None
