"""Socket buffers (``sk_buff``) and queues (``sk_buff_head``).

An :class:`SKBuff` doubles as the transport segment: the H-RMC header
fields live directly on it (the on-the-wire encoding is handled by
:mod:`repro.core.header`).  Segments become logically immutable once
transmitted -- multicast duplication shares them by reference -- except
for the sender-side bookkeeping fields (``tries``, ``last_sent_us``),
which only the sender touches.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import islice
from typing import Iterator, Optional

from repro.kernel.payload import Payload

__all__ = ["SKBuff", "SkbQueue", "SKB_OVERHEAD"]

# Per-buffer bookkeeping overhead charged against sndbuf/rcvbuf, standing
# in for sizeof(struct sk_buff).
SKB_OVERHEAD = 64


class SKBuff:
    """One transport segment plus kernel bookkeeping."""

    __slots__ = (
        "sport", "dport", "seq", "rate_adv", "length", "tries", "ptype",
        "flags", "payload",
        # sender-side bookkeeping
        "last_sent_us", "retrans_pending", "release_checked",
    )

    def __init__(self, *, sport: int, dport: int, seq: int, ptype: int,
                 length: int = 0, rate_adv: int = 0, flags: int = 0,
                 tries: int = 0, payload: Optional[Payload] = None):
        self.sport = sport
        self.dport = dport
        self.seq = seq & 0xFFFFFFFF
        self.rate_adv = rate_adv & 0xFFFFFFFF
        self.length = length
        self.tries = tries
        self.ptype = ptype
        self.flags = flags
        self.payload = payload
        self.last_sent_us = -1
        self.retrans_pending = False
        self.release_checked = False

    @property
    def end_seq(self) -> int:
        """Sequence number one past the last byte of this segment."""
        return (self.seq + self.length) & 0xFFFFFFFF

    @property
    def truesize(self) -> int:
        """Bytes charged against a socket buffer for this skb."""
        return self.length + SKB_OVERHEAD

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SKBuff(type={self.ptype}, seq={self.seq}, "
                f"len={self.length}, tries={self.tries})")


class SkbQueue:
    """``sk_buff_head``: a FIFO of skbs with byte accounting."""

    def __init__(self, name: str = ""):
        self._q: deque[SKBuff] = deque()
        self.name = name
        self.bytes = 0      # sum of truesize

    def __len__(self) -> int:
        return len(self._q)

    def __bool__(self) -> bool:
        return bool(self._q)

    def __iter__(self) -> Iterator[SKBuff]:
        return iter(self._q)

    def peek(self) -> Optional[SKBuff]:
        return self._q[0] if self._q else None

    def peek_tail(self) -> Optional[SKBuff]:
        return self._q[-1] if self._q else None

    def iter_from(self, seq: int) -> Iterator[SKBuff]:
        """The skbs from the last one starting at or before ``seq`` (the
        head, if none does) to the tail, found by bisection.  The queue
        must run in sequence order from its head, spanning under 2**31
        bytes; each skb is keyed by its signed distance from the head."""
        q = self._q
        if not q:
            return iter(())
        base = q[0].seq

        def offset(s: int) -> int:          # seq_sub(s, base)
            return ((s - base + 0x80000000) & 0xFFFFFFFF) - 0x80000000

        i = bisect_right(q, offset(seq), key=lambda skb: offset(skb.seq))
        return islice(q, i - 1 if i else 0, None)

    def enqueue(self, skb: SKBuff) -> None:
        self._q.append(skb)
        self.bytes += skb.length + SKB_OVERHEAD     # skb.truesize

    def dequeue(self) -> Optional[SKBuff]:
        if not self._q:
            return None
        skb = self._q.popleft()
        self.bytes -= skb.length + SKB_OVERHEAD     # skb.truesize
        return skb

    def requeue_front(self, skb: SKBuff) -> None:
        self._q.appendleft(skb)
        self.bytes += skb.truesize

    def clear(self) -> None:
        self._q.clear()
        self.bytes = 0
