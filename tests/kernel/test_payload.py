"""Unit tests for payload descriptors."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.kernel.payload import (BytesPayload, PatternPayload, pattern_bytes)


def test_bytes_payload_roundtrip():
    p = BytesPayload(b"hello world")
    assert p.length == 11
    assert p.tobytes() == b"hello world"
    assert len(p) == 11


def test_bytes_payload_slice():
    p = BytesPayload(b"hello world")
    assert p.slice(6, 5).tobytes() == b"world"
    assert p.slice(0, 0).tobytes() == b""


def test_bytes_payload_bad_slice():
    p = BytesPayload(b"abc")
    with pytest.raises(ValueError):
        p.slice(1, 5)
    with pytest.raises(ValueError):
        p.slice(-1, 1)


def test_pattern_payload_matches_pattern_bytes():
    p = PatternPayload(1000, 64)
    assert p.tobytes() == pattern_bytes(1000, 64)
    assert p.length == 64


def test_pattern_slice_equals_bytes_slice():
    p = PatternPayload(5000, 1000)
    raw = p.tobytes()
    sl = p.slice(100, 300)
    assert sl.tobytes() == raw[100:400]


def test_pattern_wraps_period():
    big = pattern_bytes(0, 65536 * 2 + 100)
    assert big[:65536] == big[65536:131072]
    assert pattern_bytes(65530, 20) == big[65530:65550]


def test_pattern_bytes_are_pinned():
    """Every verified stream compares against these bytes: however the
    pattern is built, one period and a read across the period boundary
    keep the digests recorded when it was built at import."""
    def digest(offset, length):
        return hashlib.sha256(pattern_bytes(offset, length)).hexdigest()

    assert digest(0, 65536) == ("8ca5bb2d683a4f2b2d79557eb2be1469"
                                "3ef6f0fcf7b433b5ec551c7f38dd1267")
    assert digest(65000, 2000) == ("e55e4038bfb6f7fa7d33f349340f7299"
                                   "1d62e064cc565ed4b7b65449377e8121")


def test_pattern_empty():
    assert pattern_bytes(10, 0) == b""
    assert PatternPayload(10, 0).tobytes() == b""


def test_pattern_negative_rejected():
    with pytest.raises(ValueError):
        PatternPayload(-1, 5)
    with pytest.raises(ValueError):
        PatternPayload(0, 5).slice(0, 9)


@given(st.integers(0, 10**9), st.integers(0, 4096))
def test_pattern_consistency_property(offset, length):
    """pattern_bytes(o, n) must equal concatenating two half reads."""
    whole = pattern_bytes(offset, length)
    half = length // 2
    assert whole == pattern_bytes(offset, half) + pattern_bytes(
        offset + half, length - half)


@given(st.binary(max_size=512), st.data())
def test_bytes_slice_property(data, draw):
    p = BytesPayload(data)
    start = draw.draw(st.integers(0, len(data)))
    length = draw.draw(st.integers(0, len(data) - start))
    assert p.slice(start, length).tobytes() == data[start:start + length]
