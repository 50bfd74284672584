"""Blocking BSD-style socket facade for application processes.

Application code reads like ordinary socket code (paper section 4.1):
the sender binds, connects to a multicast address/port and calls
``send``; the receiver joins the group and calls ``recv``; both call
``close``.  Calls that would block in a kernel (``send`` with a full
send buffer, ``recv`` with an empty receive queue) are generators that
suspend the calling simulated process.

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
            chunks = self._t.recvmsg(max_bytes)
            if chunks:
                nbytes = 0
                for c in chunks:
                    nbytes += c.length
                # the socket is locked while copying to user space;
                # arriving packets queue on the transport backlog
                if self._lock is not None:
                    self._lock()
                try:
                    yield from self.host.cpu_exec(
                        self.host.cost.copy_cost(nbytes))
                finally:
                    if self._unlock is not None:
                        self._unlock()
                self.bytes_received += nbytes
                return chunks
            if self._t.at_eof():
                return []
            yield self.sock.data_ready

    # -- teardown ---------------------------------------------------------

    def close(self) -> Generator:
        """Close the connection.  On the sender this blocks until every
        receiver has the whole stream and the send window has drained."""
        yield from self._t.close_wait()

    def abort(self) -> None:
        self._t.abort()
