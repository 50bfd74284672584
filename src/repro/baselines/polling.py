"""Polling-based reliable multicast (Barcellos & Ezhilchelvan style;
paper section 1 and reference [8]).

Receivers take no spontaneous action: they receive data and answer only
when polled.  The sender periodically polls a round-robin subset of
receivers; each polled receiver returns a STATUS carrying its
cumulative next-expected sequence number and its first missing range.
The sender retransmits reported losses (multicast) and releases buffer
space once every receiver's reported mark has passed the data.

The characteristic trade-off this reproduces: feedback volume is low
and fully sender-controlled, but loss-recovery latency and buffer
occupancy are bounded below by the polling period.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.baselines.common import (ISS, MSS, RTT_US, BaselineType,
                                    BaseTransport)
from repro.core.rate import RateController
from repro.core.seq import seq_add, seq_geq, seq_gt, seq_lt, seq_min, seq_sub
from repro.kernel.host import Host
from repro.kernel.skbuff import SKBuff
from repro.sim.timer import JIFFY_US, Timer

__all__ = ["PollingTransport"]

POLL_INTERVAL_US = 5 * JIFFY_US
#: receivers polled per round
POLL_FANOUT = 4
MIN_RATE_BPS = 1_168_000
MAX_RATE_BPS = 160_000_000
#: consecutive unanswered polls after which a receiver is evicted, and
#: consecutive rounds short of a receiver after which the group is polled
EVICT_AFTER_POLLS = 20


class PollingTransport(BaseTransport):
    def __init__(self, host: Host, *, expected_receivers: int, sndbuf: int,
                 rcvbuf: int):
        super().__init__(host, sndbuf=sndbuf, rcvbuf=rcvbuf)
        self.expected_receivers = expected_receivers
        self.rate = RateController(min_rate=MIN_RATE_BPS // 8,
                                   max_rate=MAX_RATE_BPS // 8, mss=MSS)
        self._retrans: deque[SKBuff] = deque()
        self._marks: dict[str, int] = {}     # receiver -> reported rcv_nxt
        self._poll_order: list[str] = []
        self._poll_cursor = 0
        self._unanswered: dict[str, int] = {}   # consecutive silent polls
        self._stalls: dict[str, int] = {}       # responded-but-stuck polls
        self._short_rounds = 0   # consecutive rounds missing a receiver
        self._budget = 0.0
        self._last_tick = 0
        self.poll_timer = Timer(host.clock, self._poll_round, "poll")
        self._timers.append(self.poll_timer)

    # ------------------------------------------------------------------
    # sender

    def _sender_start(self) -> None:
        self._last_tick = self.sim.now
        super()._sender_start()
        self.poll_timer.mod_after(POLL_INTERVAL_US)

    def _tick(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_tick
        self._last_tick = now
        self._budget += self.rate.allowance(elapsed, RTT_US, now)
        self._budget = min(self._budget,
                           max(4.0 * MSS,
                               self.rate.rate * 2 * JIFFY_US / 1e6))
        ring = self.host.tx_space()
        while ring > 0:
            queue = self._retrans or self._unsent
            if not queue or self._budget < queue[0].length:
                break
            skb = queue.popleft()
            retrans = queue is self._retrans
            if retrans and not skb.retrans_pending:
                continue
            skb.retrans_pending = False
            self._emit(skb, now, retrans)
            self._budget -= skb.length
            ring -= 1
        self._advance()
        if not (self.drained and self.closing):
            self.transmit_timer.mod_after(JIFFY_US)

    def _advance(self) -> None:
        if len(self._marks) < self.expected_receivers:
            return
        floor = None
        for mark in self._marks.values():
            floor = mark if floor is None else seq_min(floor, mark)
        self._release(floor)

    def _poll_round(self) -> None:
        """Poll the next fanout-sized subset of receivers."""
        if self._poll_order and seq_gt(self.snd_nxt, ISS):
            lagging = [addr for addr in self._poll_order
                       if seq_lt(self._marks.get(addr, ISS), self.snd_nxt)]
            fanout = min(POLL_FANOUT, len(lagging))
            first = self._poll_cursor
            self._poll_cursor += fanout
            for i in range(first, first + fanout):
                addr = lagging[i % len(lagging)]
                silent = self._unanswered.get(addr, 0)
                if silent >= EVICT_AFTER_POLLS:
                    # receiver evidently gone: stop letting it hold the
                    # window (cf. the H-RMC probe-timeout eviction)
                    self._marks[addr] = self.snd_nxt
                    self.stats.member_timeouts += 1
                    self._advance()
                    continue
                self._poll(addr)
                self._unanswered[addr] = silent + 1
        if len(self._marks) < self.expected_receivers and \
                seq_gt(self.snd_nxt, self.snd_una):
            self._short_rounds += 1
            if self._short_rounds == EVICT_AFTER_POLLS:
                # a receiver whose first STATUS was lost is never polled
                # by name: poll the whole group once
                self._short_rounds = 0
                self._poll(self.sock.daddr)
        else:
            self._short_rounds = 0
        if not (self.closing and self.drained):
            self.poll_timer.mod_after(POLL_INTERVAL_US)

    def _poll(self, addr: str) -> None:
        poll = self.make_skb(BaselineType.POLL, seq=self.snd_nxt)
        self.host.ip_send(poll, addr)
        self.stats.probes_sent += 1

    def _on_status(self, skb: SKBuff, src: str) -> None:
        self.stats.updates_rcvd += 1
        self._unanswered[src] = 0
        if src not in self._marks:
            self._marks[src] = ISS
            self._poll_order.append(src)
        if seq_gt(skb.seq, self._marks[src]):
            self._marks[src] = skb.seq
            self._stalls[src] = 0
        elif seq_lt(skb.seq, self.snd_nxt):
            # mark is stuck: after a few rounds assume tail loss and
            # retransmit from the stuck point
            stalls = self._stalls.get(src, 0) + 1
            self._stalls[src] = stalls
            if stalls >= 4 and not skb.rate_adv:
                self._stalls[src] = 0
                self._queue_retrans(skb.seq, seq_add(skb.seq, 4 * MSS))
        # rate_adv carries the length of the first missing range
        if skb.rate_adv:
            start = skb.seq
            end = seq_add(start, skb.rate_adv)
            self.rate.on_loss_signal(self.sim.now, RTT_US)
            self._queue_retrans(start, end)
        self._advance()

    def _queue_retrans(self, start: int, end: int) -> None:
        now = self.sim.now
        for skb in self.sock.write_queue:
            if seq_geq(skb.seq, end):
                break
            if seq_geq(start, skb.end_seq):
                continue
            # at most one resend of a segment per round trip
            if now - skb.last_sent_us < RTT_US or skb.retrans_pending:
                continue
            skb.retrans_pending = True
            self._retrans.append(skb)
        if self._retrans and not self.transmit_timer.pending:
            self.transmit_timer.mod_after(0)

    # ------------------------------------------------------------------
    # receiver

    def _first_data(self) -> None:
        # announce ourselves so the sender can include us in polls
        self._send_status()
        self.stats.joins_sent += 1

    def _on_poll(self, skb: SKBuff) -> None:
        self.stats.probes_rcvd += 1
        self._send_status(horizon=skb.seq)

    def _send_status(self, horizon: Optional[int] = None) -> None:
        if self._sender is None:
            return
        missing = 0
        if horizon is not None and seq_lt(self.rx.rcv_nxt, horizon) and \
                self.rx._ooo:
            # report a loss only on evidence (a buffered out-of-order
            # successor); a bare lag may simply be data in flight
            nxt_buffered = horizon
            for s in self.rx._ooo:
                if seq_gt(s, self.rx.rcv_nxt):
                    nxt_buffered = seq_min(nxt_buffered, s)
            missing = min(seq_sub(nxt_buffered, self.rx.rcv_nxt), 0xFFFF)
            missing = max(missing, 1)
        status = self.make_skb(BaselineType.STATUS, seq=self.rx.rcv_nxt,
                               rate_adv=missing, dport=self._sender[1])
        self.host.ip_send(status, self._sender[0])
        self.stats.updates_sent += 1

    # ------------------------------------------------------------------
    # dispatch & teardown

    def segment_received(self, skb: SKBuff, src_addr: str) -> None:
        if self.is_sender:
            if skb.ptype == BaselineType.STATUS:
                self._on_status(skb, src_addr)
        elif self.is_receiver:
            if skb.ptype == BaselineType.DATA:
                self._on_data(skb, src_addr)
            elif skb.ptype == BaselineType.POLL:
                self._on_poll(skb)

    def abort(self) -> None:
        if self.is_receiver and self._sender is not None:
            # parting STATUS so the sender can release without polling us
            self._send_status()
        super().abort()
