"""32-bit wrap-safe sequence-number arithmetic (TCP-style).

The byte stream is numbered modulo 2**32; comparisons are valid as long
as the live window spans less than 2**31 bytes, which every
configuration here satisfies by orders of magnitude.
"""

from __future__ import annotations

__all__ = ["SEQ_MASK", "SEQ_HALF", "seq_add", "seq_sub", "seq_lt", "seq_leq",
           "seq_gt", "seq_geq", "seq_between", "seq_max", "seq_min"]

SEQ_MASK = 0xFFFFFFFF
SEQ_HALF = 0x80000000


# Every helper is a single expression on ``(a - b) & SEQ_MASK`` -- the
# distance from b forward to a.  a is ahead of b when that distance is
# in (0, 2**31), level at 0, and behind from 2**31 up (bit 31 set), so
# the exact antipode counts as behind.  These run several times per
# received packet; none calls another.

def seq_add(seq: int, delta: int) -> int:
    """``seq + delta`` modulo 2**32 (delta may be negative)."""
    return (seq + delta) & SEQ_MASK


def seq_sub(a: int, b: int) -> int:
    """Signed distance ``a - b`` interpreted in the window around ``b``.

    Positive when ``a`` is ahead of ``b``, negative when behind.
    """
    return ((a - b + SEQ_HALF) & SEQ_MASK) - SEQ_HALF


def seq_lt(a: int, b: int) -> bool:
    return ((a - b) & SEQ_HALF) != 0


def seq_leq(a: int, b: int) -> bool:
    return not 0 < ((a - b) & SEQ_MASK) < SEQ_HALF


def seq_gt(a: int, b: int) -> bool:
    return 0 < ((a - b) & SEQ_MASK) < SEQ_HALF


def seq_geq(a: int, b: int) -> bool:
    return not (a - b) & SEQ_HALF


def seq_between(low: int, x: int, high: int) -> bool:
    """True when ``low <= x < high`` in circular order."""
    return (not 0 < ((low - x) & SEQ_MASK) < SEQ_HALF
            and ((x - high) & SEQ_HALF) != 0)


def seq_max(a: int, b: int) -> int:
    return b if (a - b) & SEQ_HALF else a


def seq_min(a: int, b: int) -> int:
    return b if 0 < ((a - b) & SEQ_MASK) < SEQ_HALF else a
