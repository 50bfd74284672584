"""Packet-lifecycle and protocol-phase spans.

The :class:`SpanCollector` subscribes to the packet seam (it is handed
the seam's own facts -- instant, tx/rx, host and the live packet -- and
no record) and stitches per-packet timelines out of three observable
instants:

* ``t_enqueue`` -- the sender's tx fact fires when ``ip_send`` accepts
  the segment (before CPU + device queueing),
* ``t_wire`` -- the NIC stamps ``skb.last_sent_us`` when the last bit
  leaves the card,
* ``t_rx`` -- a receiver's rx fact fires after interrupt + IP + protocol
  processing delivered the packet to the transport.

From those it fills three histograms (one-way latency, sender-side
queueing delay, NAK-to-repair recovery latency) and emits protocol-phase
spans per host (join handshake, steady-state transfer, recovery bursts,
close) plus one span per recovered NAK range.  Everything is
observational: segments are never copied or mutated, and no simulator
events are scheduled.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.core.types import FIN, PacketType
from repro.obs.metrics import Histogram, LATENCY_BOUNDS_US

__all__ = ["Span", "SpanCollector"]

_DATA = int(PacketType.DATA)
_NAK = int(PacketType.NAK)
_NAK_ERR = int(PacketType.NAK_ERR)
_JOIN = int(PacketType.JOIN)
_JOIN_RESPONSE = int(PacketType.JOIN_RESPONSE)
_LEAVE = int(PacketType.LEAVE)
_UPDATE = int(PacketType.UPDATE)


@dataclass
class Span:
    """One named interval on a host's timeline."""

    name: str
    cat: str            # "phase" | "recovery"
    host: str
    start_us: int
    end_us: Optional[int] = None

    @property
    def dur_us(self) -> int:
        return (self.end_us - self.start_us) if self.end_us is not None else 0


@dataclass
class _Mark:
    """A notable instant, exported as a Perfetto instant event."""

    name: str
    host: str
    t_us: int


class _HostState:
    """What the collector holds open for one host."""

    __slots__ = ("join", "transfer", "close", "burst", "pending")

    def __init__(self) -> None:
        self.join: Optional[Span] = None
        self.transfer: Optional[Span] = None
        self.close: Optional[Span] = None
        self.burst: Optional[Span] = None       # the open recovery burst
        self.pending: dict[int, int] = {}       # NAKed seq -> first NAK t_us


class SpanCollector:
    """Stitch spans and latency histograms from tapped packets."""

    #: outstanding (seq, tries) -> enqueue-time entries kept for latency
    #: matching; bounded so a pathological run cannot grow without limit
    TX_CAP = 4096
    #: cap on exported instant marks (retransmissions, NAKs, UPDATEs)
    MARK_CAP = 20_000

    def __init__(self, sender_addr: str,
                 latency_bounds=LATENCY_BOUNDS_US):
        self.sender_addr = sender_addr
        self.one_way_us = Histogram("span.one_way_us", latency_bounds)
        self.queueing_us = Histogram("span.queueing_us", latency_bounds)
        self.recovery_us = Histogram("span.recovery_us", latency_bounds)
        self.spans: list[Span] = []
        self.marks: list[_Mark] = []
        self.last_event_us = 0
        # (seq, tries) -> enqueue t_us, oldest first.  Ordered so that
        # evicting the oldest is O(1): a plain dict used as a FIFO
        # rescans its deleted head on every next(iter(d))
        self._tx: OrderedDict[tuple[int, int], int] = OrderedDict()
        self._hosts: dict[str, _HostState] = {}

    # -- seam pump ------------------------------------------------------

    def on_packet(self, now: int, fact: str, host: str, pkt,
                  blame: int = 0) -> None:
        """Seam subscriber (see :meth:`PacketTracer.subscribe`): stitches
        tx and rx at a host and ignores drops.  The packet is live,
        read-only here.

        A loss-free DATA arrival -- nearly every packet of a run -- runs
        straight down this function: each uncommon state (first arrival,
        NAKs outstanding, FIN) is tested here, where it is one attribute
        read, and only then pays for a call."""
        if fact != "rx" and fact != "tx":
            return
        self.last_event_us = now
        try:
            st = self._hosts[host]
        except KeyError:
            st = self._hosts[host] = _HostState()
        skb = pkt.segment
        if fact == "tx":
            self._on_tx(now, host, st, skb)
        elif skb.ptype == _DATA:
            join = st.join
            if join is not None and join.end_us is None:
                join.end_us = now
            transfer = st.transfer
            if transfer is None:
                st.transfer = self._open("transfer", host, now)
            else:
                transfer.end_us = now
            # one-way and sender-side queueing latency of this copy
            t_tx = self._tx.get((skb.seq, skb.tries))
            if t_tx is not None and now >= t_tx:
                self.one_way_us.observe(now - t_tx)
                t_wire = skb.last_sent_us
                if t_tx <= t_wire <= now:
                    self.queueing_us.observe(t_wire - t_tx)
            if st.pending:
                seq = skb.seq
                self._resolve_naks(now, host, st, seq, seq + skb.length)
            if skb.flags & FIN and st.close is None:
                st.close = self._open("close", host, now)
        elif skb.ptype == _JOIN_RESPONSE:
            join = st.join
            if join is not None and join.end_us is None:
                join.end_us = now
        elif skb.ptype == _NAK_ERR and st.pending:
            # the sender refused everything below its window edge: those
            # ranges will never be repaired -- close them unrecovered
            self._resolve_naks(now, host, st, None, skb.seq)

    def _on_tx(self, now: int, host: str, st: _HostState, skb) -> None:
        ptype = skb.ptype
        if ptype == _DATA:
            if host == self.sender_addr:
                if len(self._tx) >= self.TX_CAP:
                    self._tx.popitem(last=False)    # the oldest outstanding
                self._tx[(skb.seq, skb.tries)] = now
                if skb.tries > 1:
                    self._mark("retransmit", host, now)
        elif ptype == _NAK:
            self._mark("nak", host, now)
            st.pending.setdefault(skb.seq, now)
            if st.burst is None:
                st.burst = self._open("recovery-burst", host, now)
        elif ptype == _UPDATE:
            self._mark("update", host, now)
        elif ptype == _JOIN:
            if st.join is None:
                st.join = self._open("join", host, now)
        elif ptype == _LEAVE:
            close = st.close
            if close is not None and close.end_us is None:
                close.end_us = now

    def _open(self, name: str, host: str, now: int) -> Span:
        span = Span(name, "phase", host, now)
        self.spans.append(span)
        return span

    def _resolve_naks(self, now: int, host: str, st: _HostState,
                      seq: Optional[int], end: int) -> None:
        """Close the pending NAK ranges starting in ``[seq, end)`` as
        repaired; with ``seq`` ``None``, everything below ``end`` as
        never to be repaired (no span, no latency sample)."""
        pending = st.pending
        done = [start for start in pending
                if (start < end if seq is None else seq <= start < end)]
        for start in done:
            t_nak = pending.pop(start)
            if seq is not None and now >= t_nak:
                self.recovery_us.observe(now - t_nak)
                self.spans.append(
                    Span(f"repair@{start}", "recovery", host, t_nak, now))
        if done and not pending and st.burst is not None:
            st.burst.end_us = now
            st.burst = None

    def _mark(self, name: str, host: str, t_us: int) -> None:
        if len(self.marks) < self.MARK_CAP:
            self.marks.append(_Mark(name, host, t_us))

    # -- lifecycle ------------------------------------------------------

    def finalize(self, now_us: int) -> None:
        """Close every still-open span at end of run.  Spans are tx/rx
        phenomena, so the close-out instant is the last tx/rx, not
        ``now_us`` -- ``run(until=...)`` advances the clock to the time
        horizon even when traffic drained long before it."""
        end = min(now_us, self.last_event_us) if self.last_event_us \
            else now_us
        for span in self.spans:
            if span.end_us is None:
                span.end_us = max(end, span.start_us)

    def histograms(self) -> list[Histogram]:
        return [self.one_way_us, self.queueing_us, self.recovery_us]
