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

from repro.baselines.common import (ISS, MSS, BaselineType,
                                    WindowedTransport)
from repro.core.seq import seq_gt, seq_sub
from repro.kernel.host import Host
from repro.kernel.skbuff import SKBuff

__all__ = ["AckTransport"]


class AckTransport(WindowedTransport):
    def __init__(self, host: Host, *, expected_receivers: int, sndbuf: int,
                 rcvbuf: int):
        super().__init__(host, sndbuf=sndbuf, rcvbuf=rcvbuf)
        self.expected_receivers = expected_receivers
        self._acked: dict[str, int] = {}     # receiver -> cumulative ack

    # ------------------------------------------------------------------
    # sender

    def _on_timeout(self) -> None:
        """Collapse the window and go back to the slowest mark."""
        self.ssthresh = max(MSS, self.cwnd // 2)
        self.cwnd = 2 * MSS
        now = self.sim.now
        ring = self.host.tx_space()
        budget = self.cwnd
        for skb in self.sock.write_queue:
            if ring <= 0 or budget < skb.length:
                break
            self._emit(skb, now, retrans=True)
            budget -= skb.length
            ring -= 1

    def _on_ack(self, skb: SKBuff, src: str) -> None:
        self.stats.updates_rcvd += 1
        if src not in self._acked:
            # its JOIN was lost, and a receiver sends JOIN only once
            self._acked[src] = ISS
        if seq_gt(skb.seq, self._acked[src]):
            self._acked[src] = skb.seq
        if len(self._acked) < self.expected_receivers:
            return  # not everyone has joined yet; don't slide the window
        prev_min = self.snd_una
        new_min = min(self._acked.values(),
                      key=lambda a: seq_sub(a, prev_min))
        if seq_gt(new_min, prev_min):
            advanced = seq_sub(new_min, prev_min)
            if self.cwnd < self.ssthresh:
                self.cwnd += min(advanced, MSS)
            else:
                self.cwnd += max(1, MSS * advanced // self.cwnd)
            self._advance(new_min)

    def _on_join(self, skb: SKBuff, src: str) -> None:
        self.stats.joins_rcvd += 1
        self._acked.setdefault(src, ISS)
        resp = self.make_skb(BaselineType.JOIN_RESPONSE, seq=self.snd_nxt,
                             dport=skb.sport)
        self.host.ip_send(resp, src)

    # ------------------------------------------------------------------
    # receiver

    def _first_data(self) -> None:
        join = self.make_skb(BaselineType.JOIN, seq=ISS,
                             dport=self._sender[1])
        self.host.ip_send(join, self._sender[0])
        self.stats.joins_sent += 1

    def segment_received(self, skb: SKBuff, src_addr: str) -> None:
        if self.is_sender:
            if skb.ptype == BaselineType.ACK:
                self._on_ack(skb, src_addr)
            elif skb.ptype == BaselineType.JOIN:
                self._on_join(skb, src_addr)
        elif self.is_receiver and skb.ptype == BaselineType.DATA:
            self._on_data(skb, src_addr)
