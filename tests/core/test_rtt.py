"""Unit tests for Karn/Jacobson RTT estimation."""

from hypothesis import given, strategies as st

from repro.core.rtt import RttEstimator, WorstRtt


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


def test_worst_rtt_tracks_max():
    worst = WorstRtt(50_000)
    worst.sample("a", 5_000)
    worst.sample("b", 30_000)
    worst.sample("c", 12_000)
    assert abs(worst.rtt_us - 30_000) < 100


def test_worst_rtt_initial_without_samples():
    worst = WorstRtt(70_000)
    assert worst.rtt_us == 70_000


def test_worst_rtt_forget_member():
    worst = WorstRtt(50_000)
    worst.sample("a", 5_000)
    worst.sample("b", 90_000)
    worst.forget("b")
    assert abs(worst.rtt_us - 5_000) < 100


def test_worst_rtt_forget_unknown_noop():
    worst = WorstRtt(50_000)
    worst.forget("nobody")
    assert worst.rtt_us == 50_000


@given(st.lists(st.one_of(
    st.tuples(st.just("sample"), st.sampled_from("abc"),
              st.integers(1, 500_000)),
    st.tuples(st.just("forget"), st.sampled_from("abcd")))))
def test_worst_rtt_is_the_max_of_the_sampled_members(ops):
    """The value read equals the max recomputed from scratch after any
    mix of samples and departures, or the initial estimate when no
    member is left."""
    worst = WorstRtt(50_000, min_us=2_000)
    members: dict[str, RttEstimator] = {}
    for op in ops:
        if op[0] == "sample":
            members.setdefault(op[1], RttEstimator(50_000, 2_000)).sample(
                op[2])
            worst.sample(op[1], op[2])
        else:
            members.pop(op[1], None)
            worst.forget(op[1])
        assert worst.rtt_us == max((e.rtt_us for e in members.values()),
                                   default=50_000)


def test_worst_rtt_per_member_smoothing():
    worst = WorstRtt(50_000)
    for _ in range(50):
        worst.sample("a", 4_000)
    # one outlier from another member dominates as the worst
    worst.sample("b", 100_000)
    assert worst.rtt_us >= 90_000
