"""H-RMC transport glue: socket-facing object dispatching to the sender
or receiver role.

Mirrors the paper's socket plumbing (section 4.1): creating an AF_HRMC
socket allocates the sock structure; ``connect`` makes it a sending
endpoint, the receiver-side ``setsockopt(IP_ADD_MEMBERSHIP)`` + bind
(our :meth:`join`) makes it a receiving endpoint.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generator, Optional

from repro.core.config import HRMCConfig
from repro.core.receiver import HRMCReceiver
from repro.core.sender import HRMCSender
from repro.kernel.host import Host, Transport
from repro.kernel.payload import Payload
from repro.kernel.skbuff import SKBuff
from repro.kernel.sock import Sock
from repro.kernel.socket_api import Socket
from repro.sim.timer import Timer
from repro.stats.metrics import Counters

__all__ = ["HRMCTransport", "open_hrmc_socket"]


class HRMCTransport(Transport):
    """One H-RMC socket endpoint (sender xor receiver role)."""

    def __init__(self, host: Host, cfg: Optional[HRMCConfig] = None, *,
                 sndbuf: int = 64 * 1024, rcvbuf: int = 64 * 1024,
                 name: str = ""):
        self.host = host
        self.cfg = cfg or HRMCConfig()
        self.sock = Sock(host.sim, sndbuf=sndbuf, rcvbuf=rcvbuf,
                         name=name or f"hrmc@{host.addr}")
        self.stats = Counters()
        self.sender: Optional[HRMCSender] = None
        self.receiver: Optional[HRMCReceiver] = None
        self._bound_port: Optional[int] = None
        self._group: Optional[str] = None
        self._backlog: deque[tuple[SKBuff, str]] = deque()
        # the role's packet processor, known from connect/join onward
        self._deliver: Optional[Callable[[SKBuff, str], None]] = None
        # hrmc_recvmsg: the receiver's own, from join onward (the
        # socket calls it once per read)
        self.recvmsg: Callable[[int], list[Payload]] = self._not_receiving

    # -- connection management (hrmc_bind / hrmc_connect) ---------------

    def bind(self, port: int) -> None:
        if self._bound_port is not None:
            raise RuntimeError("already bound")
        self.host.bind(port, self)
        self.sock.num = port
        self.sock.rcv_saddr = self.host.addr
        self._bound_port = port

    def connect(self, daddr: str, dport: int) -> None:
        """Become the sending endpoint of a multicast connection."""
        if self.receiver is not None:
            raise RuntimeError("socket already joined as a receiver")
        if self._bound_port is None:
            raise RuntimeError("bind before connect")
        self.sock.daddr = daddr
        self.sock.dport = dport
        self.sock.tp_pinfo = self.sender = HRMCSender(
            self.host, self.sock, self.cfg, self.stats)
        self._deliver = self.sender.segment_received
        self.sender.start()

    def join(self, group: str, port: int) -> None:
        """Become a receiving endpoint: join the IP multicast group and
        listen on the connection port."""
        if self.sender is not None:
            raise RuntimeError("socket already connected as a sender")
        self.bind(port)
        self.host.join_group(group)
        self._group = group
        self.sock.daddr = group
        self.sock.dport = port
        self.sock.tp_pinfo = self.receiver = HRMCReceiver(
            self.host, self.sock, self.cfg, self.stats)
        self._deliver = self.receiver.segment_received
        self.recvmsg = self.receiver.recvmsg
        self.receiver.start()

    # -- host dispatch --------------------------------------------------

    def segment_received(self, skb: SKBuff, src_addr: str) -> None:
        if self.sock.locked:
            # paper Figure 9: packets arriving while an application call
            # holds the socket wait on the backlog queue
            self._backlog.append((skb, src_addr))
        elif self._deliver is not None:
            self._deliver(skb, src_addr)

    # -- socket lock (cf. lock_sock/release_sock + backlog processing) --

    def lock(self) -> None:
        self.sock.locked = True

    def unlock(self) -> None:
        sock, backlog = self.sock, self._backlog
        sock.locked = False
        while backlog and not sock.locked:
            self._deliver(*backlog.popleft())

    # -- socket-facade interface ------------------------------------------

    def sendmsg_some(self, payload: Payload) -> int:
        if self.sender is None:
            raise RuntimeError("not a sending socket")
        return self.sender.sendmsg_some(payload)

    def _not_receiving(self, max_bytes: int) -> list[Payload]:
        raise RuntimeError("not a receiving socket")

    def at_eof(self) -> bool:
        return self.receiver is not None and self.receiver.at_eof()

    def close_wait(self) -> Generator:
        if self.sender is not None:
            self.sender.queue_fin()
            while not self.sender.drained:
                yield self.sock.state_change
            self.abort()
        elif self.receiver is not None:
            # retransmit LEAVE until acknowledged (it may be lost); the
            # sender's probe timeout is the backstop if we give up
            timeout = Timer(self.host.clock, self.sock.state_change.fire,
                            "leave-timeout")
            for _ in range(self.cfg.leave_max_tries):
                self.receiver.send_leave()
                timeout.mod_after(4 * self.receiver.rtt.rtt_us)
                yield self.sock.state_change
                if self.receiver.leave_acked:
                    break
            timeout.del_timer()
            self.abort()
        return None

    def abort(self) -> None:
        if self.sender is not None:
            self.sender.stop()
        if self.receiver is not None:
            self.receiver.stop()
        if self._group is not None:
            self.host.leave_group(self._group)
            self._group = None
        if self._bound_port is not None:
            self.host.unbind(self._bound_port)
            self._bound_port = None

    def unbound(self) -> None:
        pass


def open_hrmc_socket(host: Host, cfg: Optional[HRMCConfig] = None, *,
                     sndbuf: int = 64 * 1024,
                     rcvbuf: int = 64 * 1024) -> Socket:
    """Create an AF_HRMC socket on ``host`` (the ``socket()`` +
    ``hrmc_create`` path of paper Figure 5)."""
    return Socket(HRMCTransport(host, cfg, sndbuf=sndbuf, rcvbuf=rcvbuf))
