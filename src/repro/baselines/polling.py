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

from repro.baselines.common import (BaseTransport, BaselineType, FIN_FLAG,
                                    ReassemblyBuffer)
from repro.core.rate import RateController
from repro.core.rtt import RttEstimator
from repro.core.seq import seq_add, seq_geq, seq_gt, seq_lt, seq_min, seq_sub
from repro.kernel.host import Host
from repro.kernel.payload import Payload
from repro.kernel.skbuff import SKBuff
from repro.kernel.socket_api import Socket
from repro.sim.timer import JIFFY_US, Timer

__all__ = ["PollingTransport", "open_polling_socket"]


class PollingTransport(BaseTransport):
    def __init__(self, host: Host, *, expected_receivers: int = 1,
                 poll_interval_jiffies: int = 5, poll_fanout: int = 4,
                 min_rate_bps: int = 1_168_000,
                 max_rate_bps: int = 160_000_000,
                 initial_rtt_us: int = 50_000, **kw):
        super().__init__(host, **kw)
        self.expected_receivers = expected_receivers
        self.poll_interval_us = poll_interval_jiffies * JIFFY_US
        self.poll_fanout = poll_fanout
        self.rtt = RttEstimator(initial_rtt_us)
        self.rate = RateController(min_rate=min_rate_bps // 8,
                                   max_rate=max_rate_bps // 8,
                                   mss=self.mss)
        # sender state
        self.snd_wnd = self.iss
        self.snd_nxt = self.iss
        self._unsent: deque[SKBuff] = deque()
        self._retrans: deque[SKBuff] = deque()
        self._marks: dict[str, int] = {}     # receiver -> reported rcv_nxt
        self._poll_order: list[str] = []
        self._poll_cursor = 0
        self._unanswered: dict[str, int] = {}   # consecutive silent polls
        self._stalls: dict[str, int] = {}       # responded-but-stuck polls
        self.evict_after_polls = 20
        self._budget = 0.0
        self._last_tick = 0
        self.fin_seq: Optional[int] = None
        self.closing = False
        # receiver state
        self.rx: Optional[ReassemblyBuffer] = None
        self._sender: Optional[tuple[str, int]] = None
        self.transmit_timer = Timer(host.clock, self._tick, "poll-tx")
        self.poll_timer = Timer(host.clock, self._poll_round, "poll")

    # ------------------------------------------------------------------
    # sender

    def _sender_start(self) -> None:
        self._last_tick = self.sim.now
        self.transmit_timer.mod_after(JIFFY_US)
        self.poll_timer.mod_after(self.poll_interval_us)

    def sendmsg_some(self, payload: Payload) -> int:
        consumed = 0
        total = payload.length
        while consumed < total:
            chunk = min(self.mss, total - consumed)
            skb = self.make_skb(BaselineType.DATA, seq=self.snd_nxt,
                                length=chunk,
                                payload=payload.slice(consumed, chunk))
            if self.sock.wmem_free() < skb.truesize:
                break
            self.sock.write_queue.enqueue(skb)
            self._unsent.append(skb)
            self.snd_nxt = seq_add(self.snd_nxt, chunk)
            consumed += chunk
        if consumed and not self.transmit_timer.pending:
            self.transmit_timer.mod_after(0)
        return consumed

    def queue_fin(self) -> None:
        if self.fin_seq is not None:
            return
        skb = self.make_skb(BaselineType.DATA, seq=self.snd_nxt, length=1,
                            flags=FIN_FLAG)
        self.fin_seq = self.snd_nxt
        self.snd_nxt = seq_add(self.snd_nxt, 1)
        self.sock.write_queue.enqueue(skb)
        self._unsent.append(skb)
        self.closing = True

    @property
    def drained(self) -> bool:
        return len(self.sock.write_queue) == 0 and not self._unsent

    def _tick(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_tick
        self._last_tick = now
        self._budget += self.rate.allowance(elapsed, self.rtt.rtt_us, now)
        self._budget = min(self._budget,
                           max(4.0 * self.mss,
                               self.rate.rate * 2 * JIFFY_US / 1e6))
        ring = self.host.tx_space()
        while ring > 0:
            skb = None
            retrans = False
            if self._retrans:
                skb, retrans = self._retrans[0], True
            elif self._unsent:
                skb = self._unsent[0]
            if skb is None or self._budget < skb.length:
                break
            (self._retrans if retrans else self._unsent).popleft()
            if retrans and not skb.retrans_pending:
                continue
            skb.retrans_pending = False
            skb.tries += 1
            skb.last_sent_us = now
            self.host.ip_send(skb, self.sock.daddr)
            if retrans:
                self.stats.retrans_pkts += 1
            else:
                self.stats.data_pkts_sent += 1
                self.stats.data_bytes_sent += skb.length
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
        released = False
        while self.sock.write_queue:
            head = self.sock.write_queue.peek()
            if head.tries == 0 or not seq_geq(floor, head.end_seq):
                break
            self.sock.write_queue.dequeue()
            self.snd_wnd = head.end_seq
            released = True
        if released:
            self.sock.write_space.fire()
            if self.drained:
                self.sock.state_change.fire()

    def _poll_round(self) -> None:
        """Poll the next fanout-sized subset of receivers."""
        if self._poll_order and seq_gt(self.snd_nxt, self.iss):
            lagging = [addr for addr in self._poll_order
                       if seq_lt(self._marks.get(addr, self.iss),
                                 self.snd_nxt)]
            targets = []
            for _ in range(min(self.poll_fanout, len(lagging))):
                addr = lagging[self._poll_cursor % len(lagging)]
                self._poll_cursor += 1
                if addr not in targets:
                    targets.append(addr)
            for addr in targets:
                silent = self._unanswered.get(addr, 0)
                if silent >= self.evict_after_polls:
                    # receiver evidently gone: stop letting it hold the
                    # window (cf. the H-RMC probe-timeout eviction)
                    self._marks[addr] = self.snd_nxt
                    self.stats.member_timeouts += 1
                    self._advance()
                    continue
                poll = self.make_skb(BaselineType.POLL, seq=self.snd_nxt)
                self.host.ip_send(poll, addr)
                self._unanswered[addr] = silent + 1
                self.stats.probes_sent += 1
        if not (self.closing and self.drained):
            self.poll_timer.mod_after(self.poll_interval_us)

    def _on_status(self, skb: SKBuff, src: str) -> None:
        self.stats.updates_rcvd += 1
        self._unanswered[src] = 0
        if src not in self._marks:
            self._marks[src] = self.iss
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
                self._queue_retrans(skb.seq,
                                    seq_add(skb.seq, 4 * self.mss))
        # rate_adv carries the length of the first missing range
        if skb.rate_adv:
            start = skb.seq
            end = seq_add(start, skb.rate_adv)
            self.rate.on_loss_signal(self.sim.now, self.rtt.rtt_us)
            self._queue_retrans(start, end)
        self._advance()

    def _queue_retrans(self, start: int, end: int) -> None:
        pace = max(self.rtt.rtt_us, JIFFY_US)
        now = self.sim.now
        for skb in self.sock.write_queue:
            if seq_geq(skb.seq, end):
                break
            if seq_geq(start, skb.end_seq) or skb.tries == 0:
                continue
            if now - skb.last_sent_us < pace or skb.retrans_pending:
                continue
            skb.retrans_pending = True
            self._retrans.append(skb)
        if self._retrans and not self.transmit_timer.pending:
            self.transmit_timer.mod_after(0)

    # ------------------------------------------------------------------
    # receiver

    def _receiver_start(self) -> None:
        self.rx = ReassemblyBuffer(self.sock, self.iss)

    def _on_data(self, skb: SKBuff, src: str) -> None:
        self.stats.data_pkts_rcvd += 1
        self.stats.data_bytes_rcvd += skb.length
        if self._sender is None:
            self._sender = (src, skb.sport)
            # announce ourselves so the sender can include us in polls
            self._send_status()
            self.stats.joins_sent += 1
        self.rx.offer(skb)

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
    # dispatch & facade

    def segment_received(self, skb: SKBuff, src_addr: str) -> None:
        ptype = BaselineType(skb.ptype)
        if self.is_sender and ptype == BaselineType.STATUS:
            self._on_status(skb, src_addr)
        elif self.is_receiver and ptype == BaselineType.DATA:
            self._on_data(skb, src_addr)
        elif self.is_receiver and ptype == BaselineType.POLL:
            self._on_poll(skb)

    def recvmsg(self, max_bytes: int) -> list[Payload]:
        return self.rx.recvmsg(max_bytes)

    def at_eof(self) -> bool:
        return self.rx is not None and self.rx.at_eof()

    def _teardown(self) -> None:
        if self.is_receiver and self._sender is not None:
            # parting STATUS so the sender can release without polling us
            self._send_status()
        self.transmit_timer.del_timer()
        self.poll_timer.del_timer()


def open_polling_socket(host: Host, *, expected_receivers: int = 1,
                        sndbuf: int = 64 * 1024, rcvbuf: int = 64 * 1024,
                        **kw) -> Socket:
    return Socket(PollingTransport(host,
                                   expected_receivers=expected_receivers,
                                   sndbuf=sndbuf, rcvbuf=rcvbuf, **kw))
