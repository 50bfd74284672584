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

from typing import Optional

from repro.baselines.common import (MSS, RTT_US, BaselineType,
                                    ReassemblyBuffer, WindowedTransport)
from repro.core.rtt import RttEstimator
from repro.core.seq import seq_geq, seq_gt, seq_sub
from repro.kernel.host import Host
from repro.kernel.skbuff import SKBuff

__all__ = ["TcpLikeTransport"]

DUP_ACK_THRESHOLD = 3


class TcpLikeTransport(WindowedTransport):
    """One direction of a TCP-like connection (sender or receiver)."""

    def __init__(self, host: Host, *, sndbuf: int, rcvbuf: int):
        super().__init__(host, sndbuf=sndbuf, rcvbuf=rcvbuf)
        self.rtt = RttEstimator(RTT_US)
        self.dup_acks = 0
        self._timed_seq: Optional[int] = None   # Karn: one timed segment
        self._timed_at = 0

    @property
    def rto_us(self) -> int:
        return self.rtt.rto_us

    def join(self, group: str, port: int) -> None:
        # a unicast receiver just listens on the port: no group to join
        self.bind(port)
        self.is_receiver = True
        self.rx = ReassemblyBuffer(self.sock)

    # ------------------------------------------------------------------
    # sender

    def _emit(self, skb: SKBuff, now: int, retrans: bool = False) -> None:
        if not retrans and self._timed_seq is None:
            self._timed_seq = skb.end_seq
            self._timed_at = now
        if retrans and self._timed_seq is not None and \
                seq_gt(self._timed_seq, skb.seq):
            self._timed_seq = None  # Karn: retransmission poisons the sample
        super()._emit(skb, now, retrans)

    def _retransmit_head(self) -> None:
        head = self.sock.write_queue.peek()
        if head is not None:
            self._emit(head, self.sim.now, retrans=True)

    def _on_timeout(self) -> None:
        self.ssthresh = max(2 * MSS, self.cwnd // 2)
        self.cwnd = MSS
        self.dup_acks = 0
        self._retransmit_head()

    def _on_ack(self, skb: SKBuff) -> None:
        self.stats.updates_rcvd += 1
        ack = skb.seq
        if seq_gt(ack, self.snd_una):
            advanced = seq_sub(ack, self.snd_una)
            self.dup_acks = 0
            if self._timed_seq is not None and seq_geq(ack, self._timed_seq):
                self.rtt.sample(self.sim.now - self._timed_at)
                self._timed_seq = None
            if self.cwnd < self.ssthresh:
                self.cwnd += min(advanced, MSS)
            else:
                self.cwnd += max(1, MSS * MSS // self.cwnd)
            self._advance(ack)
        elif ack == self.snd_una and seq_gt(self.snd_nxt, self.snd_una):
            self.dup_acks += 1
            if self.dup_acks == DUP_ACK_THRESHOLD:
                # fast retransmit / simplified fast recovery
                self.ssthresh = max(2 * MSS, self.cwnd // 2)
                self.cwnd = self.ssthresh
                self._retransmit_head()

    # ------------------------------------------------------------------
    # dispatch

    def segment_received(self, skb: SKBuff, src_addr: str) -> None:
        if self.is_sender and skb.ptype == BaselineType.ACK:
            self._on_ack(skb)
        elif self.is_receiver and skb.ptype == BaselineType.DATA:
            self._on_data(skb, src_addr)
