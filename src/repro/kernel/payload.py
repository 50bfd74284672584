"""Payload descriptors.

Protocol correctness depends on sequence numbers and lengths, not on
payload values, so large transfers carry :class:`PatternPayload`
descriptors -- (offset, length) views into a deterministic infinite
byte pattern -- and only materialize bytes when an application actually
reads them.  Unit tests that verify end-to-end stream integrity use
either payload kind and compare materialized bytes.
"""

from __future__ import annotations

import functools

__all__ = ["Payload", "BytesPayload", "PatternPayload", "pattern_bytes"]

_PATTERN_PERIOD = 65536


@functools.cache
def _pattern() -> bytes:
    """One period of a fixed pseudo-random-looking pattern, byte i =
    (i*197 + (i>>8)*73 + 11) & 0xFF.  Built the first time bytes are
    materialised: a transfer that verifies offsets never needs it."""
    return bytes(((i * 197 + (i >> 8) * 73 + 11) & 0xFF)
                 for i in range(_PATTERN_PERIOD))


def pattern_bytes(offset: int, length: int) -> bytes:
    """Materialize ``length`` bytes of the canonical pattern at ``offset``."""
    if length <= 0:
        return b""
    start = offset % _PATTERN_PERIOD
    end = start + length
    reps = (end + _PATTERN_PERIOD - 1) // _PATTERN_PERIOD
    if reps == 1:
        return _pattern()[start:end]
    return (_pattern() * reps)[start:end]


class Payload:
    """Abstract payload: a ``length`` attribute (set by the subclass;
    payloads are immutable) plus lazily-materializable bytes."""

    __slots__ = ()
    length: int

    def slice(self, start: int, length: int) -> "Payload":
        raise NotImplementedError

    def tobytes(self) -> bytes:
        raise NotImplementedError

    def __len__(self) -> int:
        return self.length


class BytesPayload(Payload):
    """Payload backed by real bytes (used by tests and small sends)."""

    __slots__ = ("data", "length")

    def __init__(self, data: bytes):
        self.data = bytes(data)
        self.length = len(self.data)

    def slice(self, start: int, length: int) -> "BytesPayload":
        if start < 0 or length < 0 or start + length > len(self.data):
            raise ValueError(f"bad slice ({start}, {length}) of {len(self.data)}")
        return BytesPayload(self.data[start:start + length])

    def tobytes(self) -> bytes:
        return self.data

    def __repr__(self) -> str:  # pragma: no cover
        return f"BytesPayload({len(self.data)}B)"


class PatternPayload(Payload):
    """A zero-copy (offset, length) view into the canonical pattern."""

    __slots__ = ("offset", "length")

    def __init__(self, offset: int, length: int):
        if offset < 0 or length < 0:
            raise ValueError(f"bad pattern view ({offset}, {length})")
        self.offset = offset
        self.length = length

    def slice(self, start: int, length: int) -> "PatternPayload":
        if start < 0 or length < 0 or start + length > self.length:
            raise ValueError(f"bad slice ({start}, {length}) of {self.length}")
        return PatternPayload(self.offset + start, length)

    def tobytes(self) -> bytes:
        return pattern_bytes(self.offset, self.length)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PatternPayload(@{self.offset}, {self.length}B)"
