"""A TCP-like reliable unicast stream.

Implements the classic loop: cumulative ACKs on every segment, slow
start and congestion avoidance on a byte-denominated congestion window,
fast retransmit on three duplicate ACKs, retransmission timeout with
Karn/Jacobson RTT estimation and exponential backoff.

The paper's conclusions compare H-RMC's throughput to TCP's; this
transport provides that reference point over the identical kernel and
network substrate.  Serving ``n`` receivers means ``n`` sequential
unicast transfers (see :func:`repro.harness.runner.run_transfer` with
``protocol="tcp"``), which is the cost multicast is meant to avoid.
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

__all__ = ["TcpLikeTransport", "open_tcp_socket"]

DUP_ACK_THRESHOLD = 3


class TcpLikeTransport(BaseTransport):
    """One direction of a TCP-like connection (sender or receiver)."""

    def __init__(self, host: Host, *, initial_rtt_us: int = 50_000, **kw):
        super().__init__(host, **kw)
        self.rtt = RttEstimator(initial_rtt_us)
        # sender state
        self.snd_una = self.iss
        self.snd_nxt = self.iss
        self._unsent: deque[SKBuff] = deque()
        self.cwnd = 2 * self.mss
        self.ssthresh = 1 << 30
        self.dup_acks = 0
        self._rto_backoff = 1
        self._timed_seq: Optional[int] = None   # Karn: one timed segment
        self._timed_at = 0
        self.fin_seq: Optional[int] = None
        self.closing = False
        # receiver state
        self.rx: Optional[ReassemblyBuffer] = None
        self._sender: Optional[tuple[str, int]] = None
        self.transmit_timer = Timer(host.clock, self._tick, "tcp-tx")
        self.rto_timer = Timer(host.clock, self._rto_fire, "tcp-rto")

    # ------------------------------------------------------------------
    # sender

    def _sender_start(self) -> None:
        self.transmit_timer.mod_after(JIFFY_US)

    def listen(self, port: int) -> None:
        """Receiver side of a unicast stream (no multicast join)."""
        self.bind(port)
        self.is_receiver = True
        self.rx = ReassemblyBuffer(self.sock, self.iss)

    def join(self, group: str, port: int) -> None:
        # for harness symmetry a unicast "join" just listens
        self.listen(port)

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
        if seq_gt(self.snd_nxt, self.snd_una) and not self.rto_timer.pending:
            self.rto_timer.mod_after(self.rtt.rto_us * self._rto_backoff)
        if not (self.drained and self.closing):
            self.transmit_timer.mod_after(JIFFY_US)

    def _emit(self, skb: SKBuff, now: int, retrans: bool = False) -> None:
        skb.tries += 1
        skb.last_sent_us = now
        if skb.first_sent_us < 0:
            skb.first_sent_us = now
        if not retrans and self._timed_seq is None:
            self._timed_seq = skb.end_seq
            self._timed_at = now
        if retrans and self._timed_seq is not None and \
                seq_gt(self._timed_seq, skb.seq):
            self._timed_seq = None  # Karn: retransmission poisons the sample
        self.host.ip_send(skb, self.sock.daddr)
        if retrans:
            self.stats.retrans_pkts += 1
            self.stats.retrans_bytes += skb.length
        else:
            self.stats.data_pkts_sent += 1
            self.stats.data_bytes_sent += skb.length

    def _retransmit_head(self) -> None:
        head = self.sock.write_queue.peek()
        if head is not None and head.tries > 0:
            self._emit(head, self.sim.now, retrans=True)

    def _rto_fire(self) -> None:
        if self.snd_una == self.snd_nxt:
            return
        self.ssthresh = max(2 * self.mss, self.cwnd // 2)
        self.cwnd = self.mss
        self.dup_acks = 0
        self._rto_backoff = min(self._rto_backoff * 2, 64)
        self._retransmit_head()
        self.rto_timer.mod_after(self.rtt.rto_us * self._rto_backoff)

    def _on_ack(self, skb: SKBuff) -> None:
        self.stats.updates_rcvd += 1
        ack = skb.seq
        if seq_gt(ack, self.snd_una):
            advanced = seq_sub(ack, self.snd_una)
            self.snd_una = ack
            self.dup_acks = 0
            self._rto_backoff = 1
            self.rto_timer.del_timer()
            if self._timed_seq is not None and seq_geq(ack, self._timed_seq):
                self.rtt.sample(self.sim.now - self._timed_at)
                self._timed_seq = None
            if self.cwnd < self.ssthresh:
                self.cwnd += min(advanced, self.mss)
            else:
                self.cwnd += max(1, self.mss * self.mss // self.cwnd)
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
        elif ack == self.snd_una and seq_gt(self.snd_nxt, self.snd_una):
            self.dup_acks += 1
            if self.dup_acks == DUP_ACK_THRESHOLD:
                # fast retransmit / simplified fast recovery
                self.ssthresh = max(2 * self.mss, self.cwnd // 2)
                self.cwnd = self.ssthresh
                self._retransmit_head()

    # ------------------------------------------------------------------
    # receiver

    def _on_data(self, skb: SKBuff, src: str) -> None:
        self.stats.data_pkts_rcvd += 1
        self.stats.data_bytes_rcvd += skb.length
        if self._sender is None:
            self._sender = (src, skb.sport)
        self.rx.offer(skb)
        ack = self.make_skb(BaselineType.ACK, seq=self.rx.rcv_nxt,
                            dport=self._sender[1])
        self.host.ip_send(ack, self._sender[0])
        self.stats.updates_sent += 1

    # ------------------------------------------------------------------
    # dispatch & facade

    def segment_received(self, skb: SKBuff, src_addr: str) -> None:
        ptype = BaselineType(skb.ptype)
        if self.is_sender and ptype == BaselineType.ACK:
            self._on_ack(skb)
        elif self.is_receiver and ptype == BaselineType.DATA:
            self._on_data(skb, src_addr)

    def recvmsg(self, max_bytes: int) -> list[Payload]:
        return self.rx.recvmsg(max_bytes)

    def at_eof(self) -> bool:
        return self.rx is not None and self.rx.at_eof()

    def _teardown(self) -> None:
        self.transmit_timer.del_timer()
        self.rto_timer.del_timer()


def open_tcp_socket(host: Host, *, sndbuf: int = 64 * 1024,
                    rcvbuf: int = 64 * 1024) -> Socket:
    return Socket(TcpLikeTransport(host, sndbuf=sndbuf, rcvbuf=rcvbuf))
