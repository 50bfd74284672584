"""Unit tests for Karn/Jacobson RTT estimation."""

from hypothesis import given, strategies as st

from repro.core.config import INITIAL_RTT_US, MIN_RTT_US
from repro.core.membership import MemberTable
from repro.core.rtt import RttEstimator


def test_initial_estimate():
    est = RttEstimator(50_000)
    assert est.rtt_us == 50_000
    assert est.samples == 0


def test_first_sample_replaces_initial():
    est = RttEstimator(50_000)
    est.sample(10_000)
    assert est.rtt_us == 10_000
    assert est.rttvar == 5_000


def test_smoothing_converges():
    est = RttEstimator(50_000)
    for _ in range(100):
        est.sample(8_000)
    assert abs(est.rtt_us - 8_000) < 200
    assert est.rto_us >= est.rtt_us


def test_min_floor():
    est = RttEstimator(50_000, min_us=2_000)
    for _ in range(50):
        est.sample(1)
    assert est.rtt_us >= 2_000
    assert est.rto_us >= 2_000


def test_variance_raises_rto():
    steady = RttEstimator(10_000)
    jittery = RttEstimator(10_000)
    for i in range(50):
        steady.sample(10_000)
        jittery.sample(5_000 if i % 2 else 15_000)
    assert jittery.rto_us > steady.rto_us


@given(st.lists(st.integers(1_000, 1_000_000), min_size=1, max_size=100))
def test_estimate_within_sample_range(samples):
    est = RttEstimator(50_000)
    for s in samples:
        est.sample(s)
    assert min(samples) - 1 <= est.rtt_us <= max(max(samples), 50_000) + 1


# -- the worst RTT over the members, kept by the member table ------------

def _sampled(table, addr, rtt_us):
    table.sample_rtt(table.add(addr, 0, 0), rtt_us)


def test_worst_rtt_tracks_max():
    t = MemberTable()
    _sampled(t, "a", 5_000)
    _sampled(t, "b", 30_000)
    _sampled(t, "c", 12_000)
    assert abs(t.rtt_us - 30_000) < 100


def test_worst_rtt_initial_without_samples():
    t = MemberTable()
    assert t.rtt_us == INITIAL_RTT_US
    t.add("a", 0, 0)            # a member with no sample does not count
    assert t.rtt_us == INITIAL_RTT_US


def test_worst_rtt_forget_member():
    """Removing the worst member drops the maximum at once to the worst
    of those that remain; there is no decay."""
    t = MemberTable()
    _sampled(t, "a", 5_000)
    _sampled(t, "b", 90_000)
    t.remove("b")
    assert abs(t.rtt_us - 5_000) < 100


def test_worst_rtt_forget_unknown_noop():
    t = MemberTable()
    t.remove("nobody")
    assert t.rtt_us == INITIAL_RTT_US


@given(st.lists(st.one_of(
    st.tuples(st.just("sample"), st.sampled_from("abc"),
              st.integers(1, 500_000)),
    st.tuples(st.just("remove"), st.sampled_from("abcd")))))
def test_worst_rtt_is_the_max_of_the_sampled_members(ops):
    """The value read equals the max recomputed from scratch after any
    mix of samples and departures, or the initial estimate when no
    sampled member is left; a member that rejoins starts afresh."""
    t = MemberTable()
    members: dict[str, RttEstimator] = {}
    for op in ops:
        if op[0] == "sample":
            members.setdefault(
                op[1], RttEstimator(INITIAL_RTT_US, MIN_RTT_US)).sample(op[2])
            _sampled(t, op[1], op[2])
        else:
            members.pop(op[1], None)
            t.remove(op[1])
        assert t.rtt_us == max((e.rtt_us for e in members.values()),
                               default=INITIAL_RTT_US)


def test_worst_rtt_per_member_smoothing():
    t = MemberTable()
    for _ in range(50):
        _sampled(t, "a", 4_000)
    # one outlier from another member dominates as the worst
    _sampled(t, "b", 100_000)
    assert t.rtt_us >= 90_000
