"""Shared plumbing for the baseline transports.

Each baseline is a :class:`repro.kernel.host.Transport` with the same
socket-facing surface as H-RMC (bind / connect / join / sendmsg_some /
recvmsg / at_eof / close_wait / abort), so the experiment harness can
swap protocols freely.
"""

from __future__ import annotations

import enum
from typing import Generator, Optional

from repro.core.seq import seq_add, seq_geq, seq_gt, seq_leq, seq_sub
from repro.kernel.host import Host, Transport
from repro.kernel.payload import Payload
from repro.kernel.skbuff import SKBuff
from repro.kernel.sock import Sock
from repro.stats.metrics import Counters

__all__ = ["BaselineType", "FIN_FLAG", "BaseTransport"]

FIN_FLAG = 0x0002


class BaselineType(enum.IntEnum):
    """Packet types shared by the baseline protocols."""

    DATA = 1
    ACK = 2
    JOIN = 3
    JOIN_RESPONSE = 4
    POLL = 5
    STATUS = 6
    NAK = 7


class BaseTransport(Transport):
    """Common endpoint state and the socket-facade surface."""

    def __init__(self, host: Host, *, sndbuf: int = 64 * 1024,
                 rcvbuf: int = 64 * 1024, iss: int = 1, mss: int = 1460,
                 name: str = ""):
        self.host = host
        self.sock = Sock(host.sim, sndbuf=sndbuf, rcvbuf=rcvbuf,
                         name=name or f"{type(self).__name__}@{host.addr}")
        self.sim = host.sim
        self.stats = Counters()
        self.iss = iss
        self.mss = mss
        self._bound_port: Optional[int] = None
        self._group: Optional[str] = None
        self.is_sender = False
        self.is_receiver = False

    # -- connection management -------------------------------------------

    def bind(self, port: int) -> None:
        if self._bound_port is not None:
            raise RuntimeError("already bound")
        self.host.bind(port, self)
        self.sock.num = port
        self.sock.rcv_saddr = self.host.addr
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
        self._receiver_start()

    # subclass hooks
    def _sender_start(self) -> None: ...

    def _receiver_start(self) -> None: ...

    def _teardown(self) -> None: ...

    # -- skb helpers ----------------------------------------------------

    def make_skb(self, ptype: BaselineType, *, seq: int = 0,
                 length: int = 0, flags: int = 0, rate_adv: int = 0,
                 payload: Optional[Payload] = None,
                 dport: Optional[int] = None) -> SKBuff:
        return SKBuff(sport=self.sock.num,
                      dport=self.sock.dport if dport is None else dport,
                      seq=seq, ptype=int(ptype), length=length, flags=flags,
                      rate_adv=rate_adv, tries=1, payload=payload)

    # -- teardown ---------------------------------------------------------

    def abort(self) -> None:
        self._teardown()
        if self._group is not None:
            self.host.leave_group(self._group)
            self._group = None
        if self._bound_port is not None:
            self.host.unbind(self._bound_port)
            self._bound_port = None

    #: receivers linger this long after EOF, still ACKing/answering, so
    #: a retransmitted FIN (its ACK may have been lost) finds someone
    #: home -- the moral equivalent of TCP's TIME_WAIT
    RECEIVER_LINGER_US = 2_000_000

    def close_wait(self) -> Generator:
        if self.is_sender:
            self.queue_fin()
            while not self.drained:
                yield self.sock.state_change
        elif self.is_receiver and self.RECEIVER_LINGER_US > 0:
            from repro.sim.timer import Timer
            timeout = Timer(self.host.clock, self.sock.state_change.fire,
                            "linger")
            timeout.mod_after(self.RECEIVER_LINGER_US)
            yield self.sock.state_change
            timeout.del_timer()
        self.abort()
        return None

    # sender-side surface expected by close_wait; subclasses override
    def queue_fin(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    @property
    def drained(self) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError


class ReassemblyBuffer:
    """Receiver-side in-order reassembly shared by the baselines."""

    def __init__(self, sock: Sock, iss: int):
        self.sock = sock
        self.rcv_nxt = iss
        self.rcv_wnd = iss
        self._ooo: dict[int, SKBuff] = {}
        self.eof_seq: Optional[int] = None

    def offer(self, skb: SKBuff) -> bool:
        """Returns True if rcv_nxt advanced."""
        if seq_leq(skb.end_seq, self.rcv_nxt):
            return False
        if seq_gt(skb.seq, self.rcv_nxt):
            self._ooo.setdefault(skb.seq, skb)
            return False
        self._integrate(skb)
        while True:
            nxt = self._ooo.pop(self.rcv_nxt, None)
            if nxt is None:
                break
            self._integrate(nxt)
        self.sock.data_ready.fire()
        return True

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

    def recvmsg(self, max_bytes: int) -> list[Payload]:
        out: list[Payload] = []
        taken = 0
        q = self.sock.receive_queue
        while taken < max_bytes and q:
            skb = q.peek()
            want = max_bytes - taken
            if skb.length <= want:
                q.dequeue()
                if skb.payload is not None:
                    out.append(skb.payload)
                taken += skb.length
                self.rcv_wnd = skb.end_seq
            else:
                q.dequeue()
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
                self.rcv_wnd = seq_add(skb.seq, want)
        return out

    def at_eof(self) -> bool:
        return (self.eof_seq is not None and not self.sock.receive_queue
                and seq_geq(self.rcv_wnd, self.eof_seq))
