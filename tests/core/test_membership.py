"""Unit and property tests for the membership table."""

from hypothesis import given, settings, strategies as st

from repro.core.membership import MemberTable
from repro.net.addr import host_addr


def addr(i):
    return host_addr(0, i + 1)


def test_add_and_get():
    t = MemberTable()
    m = t.add(addr(0), 100, now_us=0)
    assert len(t) == 1
    assert t.get(addr(0)) is m
    assert addr(0) in t
    assert m.next_expected == 100


def test_duplicate_join_idempotent():
    t = MemberTable()
    m1 = t.add(addr(0), 100, 0)
    m2 = t.add(addr(0), 999, 5)
    assert m1 is m2
    assert len(t) == 1
    assert m1.next_expected == 100  # original state preserved
    assert t.joins == 1


def test_remove():
    t = MemberTable()
    t.add(addr(0), 1, 0)
    t.add(addr(1), 1, 0)
    assert t.remove(addr(0)) is True
    assert len(t) == 1
    assert t.get(addr(0)) is None
    assert t.get(addr(1)) is not None


def test_remove_unknown_counts_implicit_departure_once():
    # a LEAVE from an address whose JOIN was lost proves the receiver
    # existed and is done: it joins the quorum tallies exactly once,
    # even when the LEAVE is retransmitted
    t = MemberTable()
    assert t.remove(addr(9)) is False
    assert t.joins == 1
    assert t.remove(addr(9)) is False
    assert t.joins == 1
    assert len(t) == 0


def test_retried_leave_after_removal_not_recounted():
    t = MemberTable()
    t.add(addr(0), 1, 0)
    assert t.remove(addr(0)) is True
    assert t.remove(addr(0)) is False  # retransmitted LEAVE
    assert t.joins == 1


def test_rejoin_after_leave_counts_again():
    t = MemberTable()
    t.add(addr(0), 1, 0)
    t.remove(addr(0))
    t.add(addr(0), 50, 10)
    t.remove(addr(0))
    assert t.joins == 2
    t.remove(addr(0))       # its retried LEAVE
    assert t.joins == 2


def test_iteration_order_is_join_order():
    t = MemberTable()
    for i in range(5):
        t.add(addr(i), 1, 0)
    assert [m.addr for m in t] == [addr(i) for i in range(5)]


def test_update_feedback_only_advances():
    t = MemberTable()
    t.add(addr(0), 100, 0)
    t.update_feedback(addr(0), 500, 10)
    assert t.get(addr(0)).next_expected == 500
    t.update_feedback(addr(0), 300, 20)  # stale feedback
    assert t.get(addr(0)).next_expected == 500
    assert t.get(addr(0)).last_feedback_us == 20


def test_update_feedback_unknown_member():
    t = MemberTable()
    assert t.update_feedback(addr(0), 100, 0) is None


def test_feedback_clears_outstanding_probe():
    t = MemberTable()
    m = t.add(addr(0), 100, 0)
    m.probe_sent_us = 55
    t.update_feedback(addr(0), 200, 60)
    assert m.probe_sent_us == -1


def test_lacking_and_all_have():
    t = MemberTable()
    t.add(addr(0), 100, 0)
    t.add(addr(1), 200, 0)
    t.add(addr(2), 300, 0)
    assert t.all_have(100)
    assert not t.all_have(150)
    lacking = t.lacking(250)
    assert sorted(m.addr for m in lacking) == sorted([addr(0), addr(1)])
    assert t.lacking(50) == []


def test_all_have_vacuous_when_empty():
    t = MemberTable()
    assert t.all_have(10**6)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.sampled_from(["add", "remove"]),
                          st.integers(0, 15)), max_size=80))
def test_consistency_under_random_ops(ops):
    """Against a plain dict of the members: membership, lookups, the
    join tally (a LEAVE from a never-seen address counts once) and
    iteration in the shadow's insertion order, the order probes go out
    in."""
    t = MemberTable()
    shadow: dict[str, int] = {}
    departed: set[str] = set()
    joins = 0
    for op, i in ops:
        a = addr(i)
        if op == "add":
            if a not in shadow:
                shadow[a] = i
                joins += 1
                departed.discard(a)
            t.add(a, i, 0)
        else:
            if a not in shadow and a not in departed:
                joins += 1
            assert t.remove(a) is (shadow.pop(a, None) is not None)
            departed.add(a)
        assert len(t) == len(shadow)
        assert [m.addr for m in t] == list(shadow)
        assert t.joins == joins
    for i in range(16):
        a = addr(i)
        assert (a in t) is (a in shadow)
        if a in shadow:
            assert t.get(a).next_expected == shadow[a]
        else:
            assert t.get(a) is None
