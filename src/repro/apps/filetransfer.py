"""File-transfer applications (the paper's workload).

Two application processes mirror the experimental methodology:

* :func:`sender_app` -- binds, connects to the multicast endpoint, and
  streams ``nbytes`` of the canonical pattern; in disk mode every chunk
  is first read from the disk model.
* :func:`receiver_app` -- joins the group and reads until end of
  stream; in disk mode every chunk is written to the disk model.  The
  received stream is verified against the pattern (cheap offset checks
  on the payload descriptors by default; full byte comparison on
  demand).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.apps.diskmodel import DiskModel
from repro.kernel.payload import PatternPayload, pattern_bytes
from repro.kernel.socket_api import Socket

__all__ = ["AppResult", "sender_app", "receiver_app"]

DEFAULT_CHUNK = 64 * 1024


@dataclass
class AppResult:
    """Filled in by the application processes as they finish."""

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


def receiver_app(sock: Socket, *, group: str, port: int, result: AppResult,
                 disk: Optional[DiskModel] = None,
                 chunk: int = DEFAULT_CHUNK, verify: str = "offsets",
                 resume: bool = False):
    """Generator process: join, read to EOF (verifying), and close.

    ``verify`` is ``"offsets"`` (check payload descriptors are the
    expected contiguous pattern slices -- zero-copy), ``"bytes"``
    (materialize and compare against the pattern), or ``"none"``.

    With ``resume=True`` (a receiver rejoining mid-stream, e.g. after a
    crash) verification locks onto the offset of the first delivered
    payload instead of expecting the stream to start at 0.
    """
    sim = sock.host.sim
    sock.join(group, port)
    expected_offset: Optional[int] = None if resume else 0
    while True:
        payloads = yield from sock.recv_payloads(chunk)
        if not payloads:
            break
        if expected_offset is None:
            first = payloads[0]
            expected_offset = (first.offset
                               if isinstance(first, PatternPayload) else 0)
            result.resumed_at_offset = expected_offset
        start = expected_offset
        if verify == "offsets":
            for p in payloads:
                if isinstance(p, PatternPayload):
                    if p.offset != expected_offset:
                        result.verified = False
                        result.errors.append(
                            f"offset {p.offset} != expected "
                            f"{expected_offset}")
                elif p.tobytes() != pattern_bytes(expected_offset, p.length):
                    result.verified = False
                    result.errors.append(
                        f"bytes mismatch at {expected_offset}")
                expected_offset += p.length
        else:
            for p in payloads:
                expected_offset += p.length
            if verify == "bytes":
                data = b"".join(p.tobytes() for p in payloads)
                if data != pattern_bytes(start, expected_offset - start):
                    result.verified = False
                    result.errors.append(f"bytes mismatch at {start}")
        got = expected_offset - start
        result.bytes_done += got
        if disk is not None:
            yield from disk.write(got)
    result.data_done_at_us = sim.now
    # surface protocol-reported stream damage (RMC's NAK_ERR path)
    receiver = getattr(sock.transport, "receiver", None)
    if receiver is not None and getattr(receiver, "error", None):
        result.errors.append(receiver.error)
    yield from sock.close()
    result.finished_at_us = sim.now
    return result
