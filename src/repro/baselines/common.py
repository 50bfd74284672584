"""The transport the baselines share; each protocol module keeps only
its policy.

Each baseline is a :class:`repro.kernel.host.Transport` with the same
socket-facing surface as H-RMC (bind / connect / join / sendmsg_some /
recvmsg / at_eof / close_wait / abort), so the experiment harness can
swap protocols freely.  :class:`BaseTransport` is everything the three
do alike: the write path, the send accounting, buffer release, the
receiver's reassembly and timer teardown.  :class:`WindowedTransport`
adds the congestion window and retransmission timeout that the ACK
baseline and the TCP-like stream share.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Generator, Optional

from repro.core.seq import seq_add, seq_geq, seq_gt, seq_leq, seq_sub
from repro.kernel.host import Host, Transport
from repro.kernel.payload import Payload
from repro.kernel.skbuff import SKBuff
from repro.kernel.sock import Sock
from repro.sim.timer import JIFFY_US, Timer
from repro.stats.metrics import Counters

__all__ = ["BaselineType", "FIN_FLAG", "ISS", "MSS", "RTT_US", "RTO_US",
           "BaseTransport", "WindowedTransport"]

FIN_FLAG = 0x0002

#: initial sequence number and segment size of every baseline stream
ISS = 1
MSS = 1460

#: the round trip the ACK and polling baselines assume for the whole
#: run (they take no RTT sample), and the timeout that goes with it
#: (srtt + 4 * rttvar of an unsampled estimator); the TCP-like stream
#: starts its estimator from the same figure
RTT_US = 50_000
RTO_US = 150_000

#: receivers linger this long after EOF, still ACKing/answering, so
#: a retransmitted FIN (its ACK may have been lost) finds someone
#: home -- the moral equivalent of TCP's TIME_WAIT
RECEIVER_LINGER_US = 2_000_000


class BaselineType(enum.IntEnum):
    """Packet types shared by the baseline protocols."""

    DATA = 1
    ACK = 2
    JOIN = 3
    JOIN_RESPONSE = 4
    POLL = 5
    STATUS = 6


class BaseTransport(Transport):
    """Common endpoint state, the write path and the receive side."""

    def __init__(self, host: Host, *, sndbuf: int, rcvbuf: int):
        self.host = host
        self.sock = Sock(host.sim, sndbuf=sndbuf, rcvbuf=rcvbuf,
                         name=f"{type(self).__name__}@{host.addr}")
        self.sim = host.sim
        self.stats = Counters()
        self._bound_port: Optional[int] = None
        self._group: Optional[str] = None
        self.is_sender = False
        self.is_receiver = False
        # sender state: snd_una is the release edge (the first byte
        # still buffered), snd_nxt the next byte to queue
        self.snd_una = ISS
        self.snd_nxt = ISS
        self._unsent: deque[SKBuff] = deque()
        self.fin_seq: Optional[int] = None
        self.closing = False
        # receiver state
        self.rx: Optional[ReassemblyBuffer] = None
        self._sender: Optional[tuple[str, int]] = None
        self.transmit_timer = Timer(host.clock, self._tick, "transmit")
        self._timers = [self.transmit_timer]   # what abort disarms

    # -- connection management -------------------------------------------

    def bind(self, port: int) -> None:
        if self._bound_port is not None:
            raise RuntimeError("already bound")
        self.host.bind(port, self)
        self.sock.num = port
        self._bound_port = port

    def connect(self, daddr: str, dport: int) -> None:
        if self._bound_port is None:
            raise RuntimeError("bind before connect")
        self.sock.daddr = daddr
        self.sock.dport = dport
        self.is_sender = True
        self._sender_start()

    def join(self, group: str, port: int) -> None:
        self.bind(port)
        self.host.join_group(group)
        self._group = group
        self.sock.daddr = group
        self.sock.dport = port
        self.is_receiver = True
        self.rx = ReassemblyBuffer(self.sock)

    def _sender_start(self) -> None:
        self.transmit_timer.mod_after(JIFFY_US)

    # -- skb helpers ----------------------------------------------------

    def make_skb(self, ptype: BaselineType, *, seq: int = 0,
                 length: int = 0, flags: int = 0, rate_adv: int = 0,
                 payload: Optional[Payload] = None,
                 dport: Optional[int] = None) -> SKBuff:
        return SKBuff(sport=self.sock.num,
                      dport=self.sock.dport if dport is None else dport,
                      seq=seq, ptype=int(ptype), length=length, flags=flags,
                      rate_adv=rate_adv, tries=1, payload=payload)

    # -- sender: the write path ------------------------------------------

    def sendmsg_some(self, payload: Payload) -> int:
        consumed = 0
        total = payload.length
        while consumed < total:
            chunk = min(MSS, total - consumed)
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

    def _tick(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _emit(self, skb: SKBuff, now: int, retrans: bool = False) -> None:
        skb.tries += 1
        skb.last_sent_us = now
        self.host.ip_send(skb, self.sock.daddr)
        if retrans:
            self.stats.retrans_pkts += 1
            self.stats.retrans_bytes += skb.length
        else:
            self.stats.data_pkts_sent += 1
            self.stats.data_bytes_sent += skb.length

    def _release(self, edge: int) -> None:
        """Free the write queue's skbs that end at or before ``edge``,
        the lowest mark every receiver has reported; ``snd_una``
        follows the last one freed."""
        q = self.sock.write_queue
        released = False
        while q and seq_geq(edge, q.peek().end_seq):
            self.snd_una = q.dequeue().end_seq
            released = True
        if released:
            self.sock.write_space.fire()
            if self.drained:
                self.sock.state_change.fire()

    # -- receiver ------------------------------------------------------

    def _on_data(self, skb: SKBuff, src: str) -> None:
        self.stats.data_pkts_rcvd += 1
        self.stats.data_bytes_rcvd += skb.length
        if self._sender is None:
            self._sender = (src, skb.sport)
            self._first_data()
        self.rx.offer(skb)

    def _first_data(self) -> None:
        """The first DATA segment has named the sender (``_sender``)."""

    def recvmsg(self, max_bytes: int) -> list[Payload]:
        rx = self.rx
        out: list[Payload] = []
        taken = 0
        q = self.sock.receive_queue
        while taken < max_bytes and q:
            skb = q.dequeue()
            want = max_bytes - taken
            if skb.length <= want:
                if skb.payload is not None:
                    out.append(skb.payload)
                taken += skb.length
                rx.rcv_wnd = skb.end_seq
            else:
                if skb.payload is not None:
                    out.append(skb.payload.slice(0, want))
                rest = SKBuff(sport=skb.sport, dport=skb.dport,
                              seq=seq_add(skb.seq, want), ptype=skb.ptype,
                              length=skb.length - want,
                              payload=(skb.payload.slice(want,
                                                         skb.length - want)
                                       if skb.payload else None))
                q.requeue_front(rest)
                taken += want
                rx.rcv_wnd = seq_add(skb.seq, want)
        return out

    def at_eof(self) -> bool:
        rx = self.rx
        return (rx is not None and rx.eof_seq is not None
                and not self.sock.receive_queue
                and seq_geq(rx.rcv_wnd, rx.eof_seq))

    # -- teardown ---------------------------------------------------------

    def abort(self) -> None:
        for timer in self._timers:
            timer.del_timer()
        if self._group is not None:
            self.host.leave_group(self._group)
            self._group = None
        if self._bound_port is not None:
            self.host.unbind(self._bound_port)
            self._bound_port = None

    def close_wait(self) -> Generator:
        if self.is_sender:
            self.queue_fin()
            while not self.drained:
                yield self.sock.state_change
        elif self.is_receiver:
            timeout = Timer(self.host.clock, self.sock.state_change.fire,
                            "linger")
            timeout.mod_after(RECEIVER_LINGER_US)
            yield self.sock.state_change
            timeout.del_timer()
        self.abort()


class WindowedTransport(BaseTransport):
    """A congestion window over cumulative ACKs, with a retransmission
    timeout: what the ACK baseline and the TCP-like stream share.  The
    receiver ACKs every DATA segment with its next expected byte."""

    def __init__(self, host: Host, *, sndbuf: int, rcvbuf: int):
        super().__init__(host, sndbuf=sndbuf, rcvbuf=rcvbuf)
        self.cwnd = 2 * MSS
        self.ssthresh = 1 << 30
        self._rto_backoff = 1
        self.rto_timer = Timer(host.clock, self._rto_fire, "rto")
        self._timers.append(self.rto_timer)

    @property
    def rto_us(self) -> int:
        """The retransmission timeout before backoff."""
        return RTO_US

    def _in_flight(self) -> int:
        """Bytes sent and not yet acknowledged by every receiver."""
        end = self._unsent[0].seq if self._unsent else self.snd_nxt
        return seq_sub(end, self.snd_una)

    def _tick(self) -> None:
        now = self.sim.now
        ring = self.host.tx_space()
        while (self._unsent and ring > 0 and
               self._in_flight() + self._unsent[0].length <= self.cwnd):
            self._emit(self._unsent.popleft(), now)
            ring -= 1
        if not self.rto_timer.pending and seq_gt(self.snd_nxt, self.snd_una):
            self.rto_timer.mod_after(self.rto_us * self._rto_backoff)
        if not (self.drained and self.closing):
            self.transmit_timer.mod_after(JIFFY_US)

    def _rto_fire(self) -> None:
        if self.snd_una == self.snd_nxt:
            return
        self._rto_backoff = min(self._rto_backoff * 2, 64)
        self._on_timeout()
        self.rto_timer.mod_after(self.rto_us * self._rto_backoff)

    def _on_timeout(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _advance(self, ack: int) -> None:
        """Every receiver holds the bytes below ``ack``: reset the
        timeout, free the data and send more."""
        self._rto_backoff = 1
        self.rto_timer.del_timer()
        self._release(ack)
        if not self.transmit_timer.pending:
            self.transmit_timer.mod_after(0)

    def _on_data(self, skb: SKBuff, src: str) -> None:
        super()._on_data(skb, src)
        ack = self.make_skb(BaselineType.ACK, seq=self.rx.rcv_nxt,
                            dport=self._sender[1])
        self.host.ip_send(ack, self._sender[0])
        self.stats.updates_sent += 1


class ReassemblyBuffer:
    """Receiver-side in-order reassembly shared by the baselines:
    ``rcv_nxt`` is the next byte expected, ``rcv_wnd`` the next byte
    the application reads (:meth:`BaseTransport.recvmsg` moves it)."""

    def __init__(self, sock: Sock):
        self.sock = sock
        self.rcv_nxt = ISS
        self.rcv_wnd = ISS
        self._ooo: dict[int, SKBuff] = {}
        self.eof_seq: Optional[int] = None

    def offer(self, skb: SKBuff) -> None:
        if seq_leq(skb.end_seq, self.rcv_nxt):
            return
        if seq_gt(skb.seq, self.rcv_nxt):
            self._ooo.setdefault(skb.seq, skb)
            return
        self._integrate(skb)
        while True:
            nxt = self._ooo.pop(self.rcv_nxt, None)
            if nxt is None:
                break
            self._integrate(nxt)
        self.sock.data_ready.fire()

    def _integrate(self, skb: SKBuff) -> None:
        if skb.flags & FIN_FLAG:
            self.eof_seq = skb.seq
            self.rcv_nxt = skb.end_seq
            return
        trim = seq_sub(self.rcv_nxt, skb.seq)
        if trim:
            # only an overlap needs a private skb (ending where skb
            # does); a segment starting at rcv_nxt is queued as it
            # arrived, since no sender rewrites it
            length = skb.length - trim
            payload = skb.payload
            if trim > 0 and payload is not None:
                payload = payload.slice(trim, length)
            skb = SKBuff(sport=skb.sport, dport=skb.dport, seq=self.rcv_nxt,
                         ptype=skb.ptype, length=length, payload=payload)
        self.sock.receive_queue.enqueue(skb)
        self.rcv_nxt = skb.end_seq
