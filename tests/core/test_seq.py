"""Unit and property tests for wrap-safe sequence arithmetic."""

from hypothesis import given, strategies as st

from repro.core.seq import (SEQ_MASK, seq_add, seq_between, seq_geq, seq_gt,
                            seq_leq, seq_lt, seq_max, seq_min, seq_sub)

seqs = st.integers(0, SEQ_MASK)
small = st.integers(0, 2**30)  # window-scale distances


def test_basic_ordering():
    assert seq_lt(1, 2)
    assert seq_gt(2, 1)
    assert seq_leq(2, 2)
    assert seq_geq(2, 2)
    assert not seq_lt(2, 2)


def test_wraparound_compare():
    near_top = SEQ_MASK - 10
    assert seq_lt(near_top, 5)          # 5 is "after" the wrap
    assert seq_gt(5, near_top)
    assert seq_sub(5, near_top) == 16


def test_seq_add_wraps():
    assert seq_add(SEQ_MASK, 1) == 0
    assert seq_add(0, -1) == SEQ_MASK
    assert seq_add(10, 5) == 15


def test_seq_sub_signed():
    assert seq_sub(10, 3) == 7
    assert seq_sub(3, 10) == -7
    assert seq_sub(0, SEQ_MASK) == 1


def test_between():
    assert seq_between(10, 10, 20)
    assert seq_between(10, 19, 20)
    assert not seq_between(10, 20, 20)
    assert not seq_between(10, 9, 20)
    # across the wrap
    lo = SEQ_MASK - 5
    assert seq_between(lo, 2, 10)


def test_min_max():
    assert seq_max(5, 10) == 10
    assert seq_min(5, 10) == 5
    assert seq_max(SEQ_MASK - 1, 3) == 3   # 3 is after the wrap


@given(seqs, small)
def test_add_then_sub_roundtrip(a, d):
    assert seq_sub(seq_add(a, d), a) == d


@given(seqs, st.integers(1, 2**30))
def test_strict_order_after_add(a, d):
    b = seq_add(a, d)
    assert seq_lt(a, b)
    assert seq_gt(b, a)
    assert not seq_lt(b, a)


@given(seqs)
def test_reflexivity(a):
    assert seq_leq(a, a)
    assert seq_geq(a, a)
    assert not seq_lt(a, a)
    assert not seq_gt(a, a)
    assert seq_sub(a, a) == 0


@given(seqs, small, small)
def test_transitivity_within_window(a, d1, d2):
    b = seq_add(a, d1)
    c = seq_add(b, d2)
    if d1 + d2 < 2**31:
        assert seq_leq(a, b) and seq_leq(b, c)
        assert seq_leq(a, c)


@given(seqs, small)
def test_min_max_consistent(a, d):
    b = seq_add(a, d)
    assert seq_max(a, b) == b
    assert seq_min(a, b) == a
    assert seq_max(a, b) == seq_max(b, a)
    assert seq_min(a, b) == seq_min(b, a)


@given(seqs, seqs)
def test_lt_gt_duality(a, b):
    # comparison is documented as valid only while the live window spans
    # less than 2**31 bytes; at exactly half the space the ordering of a
    # serial-number pair is undefined (RFC 1982's excluded point)
    if a != b and (a - b) & SEQ_MASK != 2**31:
        assert seq_lt(a, b) != seq_lt(b, a)
        assert seq_lt(a, b) == seq_gt(b, a)


# -- the flattened helpers against the layered definitions they replaced --

def _ref_sub(a, b):
    diff = (a - b) & SEQ_MASK
    return diff - (1 << 32) if diff >= 0x80000000 else diff


_REFERENCE = {
    seq_sub: _ref_sub,
    seq_lt: lambda a, b: _ref_sub(a, b) < 0,
    seq_leq: lambda a, b: _ref_sub(a, b) <= 0,
    seq_gt: lambda a, b: _ref_sub(a, b) > 0,
    seq_geq: lambda a, b: _ref_sub(a, b) >= 0,
    seq_max: lambda a, b: a if _ref_sub(a, b) >= 0 else b,
    seq_min: lambda a, b: a if _ref_sub(a, b) <= 0 else b,
}


def _check_pair(a, b):
    for fn, ref in _REFERENCE.items():
        got, want = fn(a, b), ref(a, b)
        assert got == want and type(got) is type(want), (fn.__name__, a, b)


def _check_between(low, x, high):
    assert seq_between(low, x, high) == (
        _ref_sub(low, x) <= 0 and _ref_sub(x, high) < 0), (low, x, high)


def test_flat_helpers_equal_layered_definitions_randomized():
    import random
    rng = random.Random(1999)
    edges = [0, 1, 2**31 - 1, 2**31, 2**31 + 1, SEQ_MASK - 1, SEQ_MASK]
    for a in edges:
        for b in edges:
            _check_pair(a, b)
            for x in edges:
                _check_between(a, x, b)
    for _ in range(20_000):
        a = rng.randrange(2**32)
        # near, antipodal and arbitrary distances, both signs
        d = rng.choice([rng.randrange(-4, 5), 2**31 + rng.randrange(-2, 3),
                        rng.randrange(2**32)])
        b = (a + d) & SEQ_MASK
        _check_pair(a, b)
        _check_between(a, rng.randrange(2**32), b)


@given(st.integers(-2**40, 2**40), st.integers(-2**40, 2**40))
def test_flat_helpers_equal_layered_definitions_any_int(a, b):
    # callers pass un-normalised sums (seq + length); the masking must
    # absorb them exactly as the layered helpers did
    _check_pair(a, b)
