"""ACK-based reliable multicast (XTP / SCE style; paper section 1).

Every receiver returns a cumulative ACK for every data packet.  The
sender keeps a per-receiver cumulative acknowledgement mark and slides
its window on the *minimum* -- the slowest receiver paces the group.
A congestion window (bytes) grows by slow start / congestion avoidance
on full-window acknowledgement progress and collapses on retransmission
timeout, where the sender goes back to the slowest receiver's mark.

This is the protocol family whose feedback implosion motivates
NAK-based designs: with ``n`` receivers the sender processes ``n`` ACKs
per data packet, and the host CPU model charges for every one of them.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.baselines.common import (BaseTransport, BaselineType, FIN_FLAG,
                                    ReassemblyBuffer)
from repro.core.rtt import RttEstimator
from repro.core.seq import seq_add, seq_geq, seq_gt, seq_sub
from repro.kernel.host import Host
from repro.kernel.payload import Payload
from repro.kernel.skbuff import SKBuff
from repro.kernel.socket_api import Socket
from repro.sim.timer import JIFFY_US, Timer

__all__ = ["AckTransport", "open_ack_socket"]


class AckTransport(BaseTransport):
    def __init__(self, host: Host, *, expected_receivers: int = 1,
                 initial_rtt_us: int = 50_000, **kw):
        super().__init__(host, **kw)
        self.expected_receivers = expected_receivers
        self.rtt = RttEstimator(initial_rtt_us)
        # sender state
        self.snd_una = self.iss   # min cumulative ack over receivers
        self.snd_nxt = self.iss
        self._unsent: deque[SKBuff] = deque()
        self.cwnd = 2 * self.mss
        self.ssthresh = 1 << 30
        self._acked: dict[str, int] = {}     # receiver -> cumulative ack
        self.fin_seq: Optional[int] = None
        self.closing = False
        self._last_progress_us = 0
        self._rto_backoff = 1
        # receiver state
        self.rx: Optional[ReassemblyBuffer] = None
        self._sender: Optional[tuple[str, int]] = None
        self.transmit_timer = Timer(host.clock, self._tick, "ack-tx")
        self.rto_timer = Timer(host.clock, self._rto_fire, "ack-rto")

    # ------------------------------------------------------------------
    # sender

    def _sender_start(self) -> None:
        self.transmit_timer.mod_after(JIFFY_US)

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
        if not self.transmit_timer.pending:
            self.transmit_timer.mod_after(0)

    @property
    def drained(self) -> bool:
        return len(self.sock.write_queue) == 0 and not self._unsent

    def _in_flight(self) -> int:
        return seq_sub(self.snd_nxt, self.snd_una) - sum(
            s.length for s in self._unsent)

    def _tick(self) -> None:
        now = self.sim.now
        ring = self.host.tx_space()
        while (self._unsent and ring > 0 and
               self._in_flight() + self._unsent[0].length <= self.cwnd):
            skb = self._unsent.popleft()
            self._emit(skb, now)
            ring -= 1
        if not self.rto_timer.pending and seq_gt(self.snd_nxt, self.snd_una):
            self.rto_timer.mod_after(self.rtt.rto_us * self._rto_backoff)
        if not (self.drained and self.closing):
            self.transmit_timer.mod_after(JIFFY_US)

    def _emit(self, skb: SKBuff, now: int, retrans: bool = False) -> None:
        skb.tries += 1
        skb.last_sent_us = now
        if skb.first_sent_us < 0:
            skb.first_sent_us = now
        self.host.ip_send(skb, self.sock.daddr)
        if retrans:
            self.stats.retrans_pkts += 1
            self.stats.retrans_bytes += skb.length
        else:
            self.stats.data_pkts_sent += 1
            self.stats.data_bytes_sent += skb.length

    def _rto_fire(self) -> None:
        """Timeout: collapse the window and go back to the slowest mark."""
        if self.snd_una == self.snd_nxt:
            return
        self.ssthresh = max(self.mss, self.cwnd // 2)
        self.cwnd = 2 * self.mss
        self._rto_backoff = min(self._rto_backoff * 2, 64)
        now = self.sim.now
        ring = self.host.tx_space()
        budget = self.cwnd
        for skb in self.sock.write_queue:
            if ring <= 0 or budget < skb.length or skb.tries == 0:
                break
            self._emit(skb, now, retrans=True)
            budget -= skb.length
            ring -= 1
        self.rto_timer.mod_after(self.rtt.rto_us * self._rto_backoff)

    def _on_ack(self, skb: SKBuff, src: str) -> None:
        if src not in self._acked:
            return  # ACK from an unknown receiver (never joined)
        prev_min = self.snd_una
        if seq_gt(skb.seq, self._acked[src]):
            self._acked[src] = skb.seq
        if len(self._acked) < self.expected_receivers:
            return  # not everyone has joined yet; don't slide the window
        new_min = min(self._acked.values(),
                      key=lambda a: seq_sub(a, prev_min))
        if seq_gt(new_min, prev_min):
            advanced = seq_sub(new_min, prev_min)
            self.snd_una = new_min
            self._rto_backoff = 1
            self.rto_timer.del_timer()
            # congestion control on progress
            if self.cwnd < self.ssthresh:
                self.cwnd += min(advanced, self.mss)
            else:
                self.cwnd += max(1, self.mss * advanced // self.cwnd)
            # release acknowledged data
            released = False
            while self.sock.write_queue:
                head = self.sock.write_queue.peek()
                if not seq_geq(self.snd_una, head.end_seq):
                    break
                self.sock.write_queue.dequeue()
                released = True
            if released:
                self.sock.write_space.fire()
                if self.drained:
                    self.sock.state_change.fire()
            if not self.transmit_timer.pending:
                self.transmit_timer.mod_after(0)
        if skb.rate_adv and skb.rate_adv == skb.seq:
            pass  # reserved

    # ------------------------------------------------------------------
    # receiver

    def _receiver_start(self) -> None:
        self.rx = ReassemblyBuffer(self.sock, self.iss)

    def _on_data(self, skb: SKBuff, src: str) -> None:
        self.stats.data_pkts_rcvd += 1
        self.stats.data_bytes_rcvd += skb.length
        if self._sender is None:
            self._sender = (src, skb.sport)
            join = self.make_skb(BaselineType.JOIN, seq=self.iss,
                                 dport=skb.sport)
            self.host.ip_send(join, src)
            self.stats.joins_sent += 1
        self.rx.offer(skb)
        ack = self.make_skb(BaselineType.ACK, seq=self.rx.rcv_nxt,
                            dport=self._sender[1])
        self.host.ip_send(ack, self._sender[0])
        self.stats.updates_sent += 1  # ACKs counted as positive feedback

    # ------------------------------------------------------------------
    # dispatch & facade

    def segment_received(self, skb: SKBuff, src_addr: str) -> None:
        ptype = BaselineType(skb.ptype)
        if self.is_sender:
            if ptype == BaselineType.ACK:
                self.stats.updates_rcvd += 1
                self._on_ack(skb, src_addr)
            elif ptype == BaselineType.JOIN:
                self.stats.joins_rcvd += 1
                self._acked.setdefault(src_addr, self.iss)
                resp = self.make_skb(BaselineType.JOIN_RESPONSE,
                                     seq=self.snd_nxt, dport=skb.sport)
                self.host.ip_send(resp, src_addr)
        elif self.is_receiver:
            if ptype == BaselineType.DATA:
                self._on_data(skb, src_addr)

    def recvmsg(self, max_bytes: int) -> list[Payload]:
        return self.rx.recvmsg(max_bytes)

    def at_eof(self) -> bool:
        return self.rx is not None and self.rx.at_eof()

    def _teardown(self) -> None:
        self.transmit_timer.del_timer()
        self.rto_timer.del_timer()


def open_ack_socket(host: Host, *, expected_receivers: int = 1,
                    sndbuf: int = 64 * 1024,
                    rcvbuf: int = 64 * 1024) -> Socket:
    return Socket(AckTransport(host, expected_receivers=expected_receivers,
                               sndbuf=sndbuf, rcvbuf=rcvbuf))
