"""Unit and property tests for the rate controller."""

from hypothesis import given, strategies as st

from repro.core.rate import RateController, RatePhase
from repro.sim.timer import JIFFY_US


def mk(min_rate=100_000, max_rate=10_000_000):
    # rates in bytes/second
    return RateController(min_rate=min_rate, max_rate=max_rate, mss=1460)


def test_starts_at_minimum_in_slow_start():
    rc = mk()
    assert rc.rate_bps == 100_000
    assert rc.phase is RatePhase.SLOW_START


def test_slow_start_doubles_per_timescale():
    rc = mk()
    r0 = rc.rate
    rc.grow(JIFFY_US, 1_000)  # sub-jiffy RTT clamps to one jiffy
    assert abs(rc.rate - 2 * r0) / r0 < 0.01


def test_growth_capped_at_max():
    rc = mk(max_rate=500_000)
    for _ in range(100):
        rc.grow(JIFFY_US, JIFFY_US)
    assert rc.rate <= 500_000


def test_loss_halves_and_enters_linear():
    rc = mk()
    for _ in range(20):
        rc.grow(JIFFY_US, JIFFY_US)
    before = rc.rate
    assert rc.on_loss_signal(now_us=1_000_000, rtt_us=JIFFY_US)
    assert abs(rc.rate - before / 2) < 1
    assert rc.phase is RatePhase.CONG_AVOID
    assert rc.ssthresh == rc.rate


def test_loss_damping_once_per_timescale():
    rc = mk()
    for _ in range(20):
        rc.grow(JIFFY_US, JIFFY_US)
    before = rc.rate
    assert rc.on_loss_signal(1_000_000, JIFFY_US)
    assert not rc.on_loss_signal(1_000_000 + JIFFY_US // 2, JIFFY_US)
    assert rc.rate == before / 2              # the damped signal cut nothing
    assert rc.on_loss_signal(1_000_000 + 2 * JIFFY_US, JIFFY_US)
    assert rc.rate == before / 4


def test_halving_never_underflows_min():
    rc = mk()
    for i in range(50):
        rc.on_loss_signal(i * 2 * JIFFY_US, JIFFY_US)
    assert rc.rate >= rc.min_rate


def test_urgent_stops_for_two_rtts():
    rc = mk()
    for _ in range(20):
        rc.grow(JIFFY_US, JIFFY_US)
    rc.on_urgent(now_us=500_000, rtt_us=40_000, stop_rtts=2)
    assert rc.is_stopped(500_000 + 79_999)
    assert not rc.is_stopped(500_000 + 80_000)
    assert rc.rate == rc.min_rate
    assert rc.phase is RatePhase.SLOW_START


def test_allowance_zero_while_stopped():
    rc = mk()
    rc.on_urgent(0, 50_000)
    assert rc.allowance(JIFFY_US, 50_000, now_us=10_000) == 0.0
    assert rc.allowance(JIFFY_US, 50_000, now_us=200_000) > 0.0


def test_allowance_proportional_to_elapsed():
    rc = mk()
    a1 = RateController(min_rate=100_000, max_rate=100_000, mss=1460)
    got1 = a1.allowance(10_000, JIFFY_US, 0)
    got2 = a1.allowance(20_000, JIFFY_US, 0)
    assert abs(got2 - 2 * got1) < 2.0


def test_suggestion_caps_rate():
    rc = mk()
    for _ in range(20):
        rc.grow(JIFFY_US, JIFFY_US)
    rc.on_suggestion(200_000)
    assert rc.rate <= 200_000
    rc.on_suggestion(50_000)  # below min: clamps to min
    assert rc.rate == rc.min_rate


def test_suggestion_zero_ignored():
    rc = mk()
    before = rc.rate
    rc.on_suggestion(0)
    assert rc.rate == before


@given(st.lists(st.sampled_from(["grow", "loss", "urgent"]), max_size=200))
def test_rate_always_within_bounds(ops):
    rc = mk()
    now = 0
    for op in ops:
        now += JIFFY_US
        if op == "grow":
            rc.grow(JIFFY_US, JIFFY_US)
        elif op == "loss":
            rc.on_loss_signal(now, JIFFY_US)
        else:
            rc.on_urgent(now, JIFFY_US)
        assert rc.min_rate <= rc.rate <= rc.max_rate
        assert rc.ssthresh >= rc.min_rate


@given(st.integers(0, 10 ** 7), st.integers(1_000, 10 ** 6))
def test_allowance_nonnegative(elapsed, rtt):
    rc = mk()
    assert rc.allowance(elapsed, rtt, now_us=elapsed) >= 0.0
