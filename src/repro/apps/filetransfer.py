"""File-transfer applications (the paper's workload).

Two applications mirror the experimental methodology:

* :func:`sender_app` -- a generator process that binds, connects to the
  multicast endpoint, and streams ``nbytes`` of the canonical pattern;
  in disk mode every chunk is first read from the disk model.
* :class:`ReceiverApp` -- joins the group and reads until end of
  stream; in disk mode every chunk is written to the disk model.  The
  received stream is verified against the pattern (cheap offset checks
  on the payload descriptors by default; full byte comparison on
  demand).  It runs once per received packet on every receiver, so it
  is a :class:`~repro.sim.process.Process` driven by events rather
  than by a generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.apps.diskmodel import DiskModel
from repro.kernel.payload import Payload, PatternPayload, pattern_bytes
from repro.kernel.socket_api import Socket
from repro.sim.process import Process

__all__ = ["AppResult", "ReceiverApp", "sender_app"]

DEFAULT_CHUNK = 64 * 1024


@dataclass
class AppResult:
    """Filled in by the applications as they finish."""

    name: str = ""
    bytes_done: int = 0
    data_done_at_us: int = -1    # all payload bytes delivered (pre-close)
    finished_at_us: int = -1     # close handshake complete
    verified: bool = True
    errors: list = field(default_factory=list)
    resumed_at_offset: int = -1  # rejoin: first delivered stream offset

    @property
    def done(self) -> bool:
        return self.finished_at_us >= 0


def sender_app(sock: Socket, nbytes: int, *, sport: int, group: str,
               port: int, result: AppResult,
               disk: Optional[DiskModel] = None,
               chunk: int = DEFAULT_CHUNK):
    """Generator process: stream ``nbytes`` to the group and close."""
    sim = sock.host.sim
    sock.bind(sport)
    sock.connect(group, port)
    offset = 0
    while offset < nbytes:
        step = min(chunk, nbytes - offset)
        if disk is not None:
            yield from disk.read(step)
        yield from sock.send(PatternPayload(offset, step))
        offset += step
    yield from sock.close()
    result.bytes_done = offset
    result.finished_at_us = sim.now
    return result


class ReceiverApp(Process):
    """The receiving application: join, read to EOF (verifying), close.

    ``verify`` is ``"offsets"`` (check payload descriptors are the
    expected contiguous pattern slices -- zero-copy), ``"bytes"``
    (materialize and compare against the pattern), or ``"none"``.

    With ``resume=True`` (a receiver rejoining mid-stream, e.g. after a
    crash) verification locks onto the offset of the first delivered
    payload instead of expecting the stream to start at 0.

    Every wake is one engine event, the same events a generator doing
    ``recv_payloads`` and ``disk.write`` in a loop would cause: it
    finishes the read in flight (unlock, count, verify, and schedule
    the disk write if there is a disk), then starts the next one --
    ``start_read``, and the copy's CPU time with this wake at its end --
    or waits for ``data_ready``.  At end of stream ``sock.close()`` is
    driven as a generator.  Killed mid-copy, it unlocks the socket,
    which hands the backlog to the protocol at kill time, as
    ``Socket.recv_payloads`` does for a generator reader.
    """

    def __init__(self, sock: Socket, *, group: str, port: int,
                 result: AppResult, disk: Optional[DiskModel] = None,
                 chunk: int = DEFAULT_CHUNK, verify: str = "offsets",
                 resume: bool = False, name: str = ""):
        self._sock = sock
        self._t = sock.transport
        self._data_ready = sock.sock.data_ready
        self._group = group
        self._port = port
        self._app = result
        self._disk = disk
        self._chunk = chunk
        self._verify = verify
        self._expected: Optional[int] = None if resume else 0
        self._joined = False
        # the payloads whose copy to user space is in flight
        self._copying: Optional[list[Payload]] = None
        # False from end of stream on: the generator (the close) runs
        self._reading = True
        super().__init__(sock.host.sim, self._closing(), name)

    def _resume(self, value: Any) -> None:
        if not self.alive:
            return
        self._waiting_on = None
        if not self._reading:
            Process._resume(self, value)
            return
        try:
            payloads = self._copying
            if payloads is not None:
                # the copy is over: unlock, then verify and count it
                self._copying = None
                self._sock.end_read()
                app = self._app
                expected = self._expected
                if expected is None:
                    first = payloads[0]
                    expected = (first.offset
                                if type(first) is PatternPayload else 0)
                    app.resumed_at_offset = expected
                start = expected
                if self._verify == "offsets":
                    for p in payloads:
                        if type(p) is PatternPayload:
                            if p.offset != expected:
                                app.verified = False
                                app.errors.append(
                                    f"offset {p.offset} != expected "
                                    f"{expected}")
                        elif p.tobytes() != pattern_bytes(expected,
                                                          p.length):
                            app.verified = False
                            app.errors.append(
                                f"bytes mismatch at {expected}")
                        expected += p.length
                else:
                    for p in payloads:
                        expected += p.length
                    if self._verify == "bytes":
                        data = b"".join(p.tobytes() for p in payloads)
                        if data != pattern_bytes(start, expected - start):
                            app.verified = False
                            app.errors.append(f"bytes mismatch at {start}")
                self._expected = expected
                app.bytes_done += expected - start
                if self._disk is not None:
                    self._sim.call_after(
                        self._disk.write_us(expected - start),
                        self._resume, None)
                    return
            elif not self._joined:
                self._sock.join(self._group, self._port)
                self._joined = True
            sock = self._sock
            payloads = sock.start_read(self._chunk)
            if payloads:
                self._copying = payloads
                sock.host.cpu_run(sock.copy_us, self._resume, None)
            elif self._t.at_eof():
                self._reading = False
                Process._resume(self, None)
            else:
                self._data_ready._arm(self)
        except Exception as exc:  # propagate at join time, like Process
            self._finish(None, exc)

    def _closing(self):
        """The process's generator, started at end of stream (killed
        before then, it is thrown into before its first line): record
        the end, surface protocol-reported stream damage (RMC's NAK_ERR
        path), and close."""
        app = self._app
        app.data_done_at_us = self._sim.now
        receiver = getattr(self._t, "receiver", None)
        if receiver is not None and getattr(receiver, "error", None):
            app.errors.append(receiver.error)
        yield from self._sock.close()
        app.finished_at_us = self._sim.now
        return app

    def kill(self) -> None:
        if self.alive and self._copying is not None:
            self._copying = None
            self._sock.end_read(copied=False)
        super().kill()
