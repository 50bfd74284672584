"""Blocking BSD-style socket facade for application processes.

Application code reads like ordinary socket code (paper section 4.1):
the sender binds, connects to a multicast address/port and calls
``send``; the receiver joins the group and calls ``recv``; both call
``close``.  Calls that would block in a kernel (``send`` with a full
send buffer, ``recv`` with an empty receive queue) are generators that
suspend the calling simulated process.  A reader that is not a
generator (the file-transfer receiver) takes the same read step through
:meth:`Socket.start_read` and :meth:`Socket.end_read`.

The facade works with any transport exposing the small protocol-side
interface documented on :class:`Socket`.
"""

from __future__ import annotations

from typing import Generator

from repro.kernel.payload import BytesPayload, Payload

__all__ = ["Socket"]


class Socket:
    """User-level socket bound to one transport instance.

    The transport must provide::

        sock                      # the kernel Sock
        host                      # the owning Host
        bind(port)
        connect(daddr, dport)
        join(group, port)         # receiver-side setsockopt + bind
        sendmsg_some(payload) -> int      # consume what fits, 0 if none
        recvmsg(max_bytes) -> list[Payload]
        at_eof() -> bool
        close_wait() -> Generator  # drain-and-release on the sender side
        abort()
    """

    def __init__(self, transport):
        self._t = transport
        self.host = transport.host
        # the socket lock, for transports that have one (decided here,
        # not per call)
        self._lock = getattr(transport, "lock", None)
        self._unlock = getattr(transport, "unlock", None)
        self.bytes_sent = 0
        self.bytes_received = 0
        # the read in flight (see start_read): its size and CPU cost
        self._copy_bytes = 0
        self.copy_us = 0

    @property
    def transport(self):
        return self._t

    @property
    def sock(self):
        return self._t.sock

    # -- connection management ---------------------------------------

    def bind(self, port: int) -> None:
        self._t.bind(port)

    def connect(self, daddr: str, dport: int) -> None:
        self._t.connect(daddr, dport)

    def join(self, group: str, port: int) -> None:
        """Receiver-side: join the multicast group and listen on port."""
        self._t.join(group, port)

    # -- data transfer --------------------------------------------------

    def send(self, data) -> Generator:
        """Send all of ``data`` (bytes or a Payload), blocking for
        send-buffer space as needed.  Returns the byte count."""
        payload: Payload = (
            BytesPayload(data) if isinstance(data, (bytes, bytearray))
            else data)
        total = payload.length
        # copy_from_user cost for the whole call
        yield from self.host.cpu_exec(self.host.cost.copy_cost(total))
        offset = 0
        while offset < total:
            rest = payload.slice(offset, total - offset)
            consumed = self._t.sendmsg_some(rest)
            if consumed == 0:
                yield self.sock.write_space
                continue
            offset += consumed
        self.bytes_sent += total
        return total

    def recv(self, max_bytes: int) -> Generator:
        """Receive up to ``max_bytes``; blocks until data or EOF.
        Returns ``b""`` at end of stream."""
        chunks = yield from self.recv_payloads(max_bytes)
        return b"".join(c.tobytes() for c in chunks)

    def recv_payloads(self, max_bytes: int) -> Generator:
        """Like :meth:`recv` but returns payload descriptors without
        materializing bytes (the fast path for large benchmarks).
        Returns ``[]`` at end of stream."""
        while True:
            chunks = self.start_read(max_bytes)
            if chunks:
                try:
                    yield from self.host.cpu_exec(self.copy_us)
                except BaseException:
                    self.end_read(copied=False)
                    raise
                self.end_read()
                return chunks
            if self._t.at_eof():
                return []
            yield self.sock.data_ready

    # -- the read step, for readers that are not generators ---------------

    def start_read(self, max_bytes: int) -> list[Payload]:
        """Take up to ``max_bytes`` of in-order payload without
        blocking.  If there is any, the socket is locked while it is
        copied to user space -- arriving packets queue on the transport
        backlog -- and :attr:`copy_us` is the copy's CPU cost; the
        caller charges it to the host and then calls :meth:`end_read`.
        Returns ``[]`` when nothing is queued."""
        chunks = self._t.recvmsg(max_bytes)
        if chunks:
            nbytes = 0
            for c in chunks:
                nbytes += c.length
            if self._lock is not None:
                self._lock()
            self._copy_bytes = nbytes
            cost = self.host.cost    # a size already seen: no call
            try:
                self.copy_us = cost._copy_memo[nbytes]
            except KeyError:
                self.copy_us = cost.copy_cost(nbytes)
        return chunks

    def end_read(self, copied: bool = True) -> None:
        """The copy begun by :meth:`start_read` is over: unlock, which
        hands the backlog to the protocol, and count the bytes unless
        the reader died mid-copy (``copied=False``)."""
        if self._unlock is not None:
            self._unlock()
        if copied:
            self.bytes_received += self._copy_bytes

    # -- teardown ---------------------------------------------------------

    def close(self) -> Generator:
        """Close the connection.  On the sender this blocks until every
        receiver has the whole stream and the send window has drained."""
        yield from self._t.close_wait()

    def abort(self) -> None:
        self._t.abort()
