"""Unit tests for Linux-style timers and jiffy helpers."""

from repro.sim.engine import Simulator
from repro.sim.timer import Timer, JIFFY_US, jiffies_to_us, us_to_jiffies


def test_jiffy_constants():
    assert JIFFY_US == 10_000
    assert jiffies_to_us(50) == 500_000
    assert us_to_jiffies(500_000) == 50
    assert us_to_jiffies(9_999) == 0


def test_timer_fires_once():
    sim = Simulator()
    fired = []
    t = Timer(sim, lambda: fired.append(sim.now))
    t.mod_after(100)
    sim.run()
    assert fired == [100]
    assert not t.pending
    sim.call_at(500, lambda: None)          # the clock runs on
    sim.run()
    assert fired == [100]


def test_mod_timer_rearms():
    sim = Simulator()
    fired = []
    t = Timer(sim, lambda: fired.append(sim.now))
    t.mod_after(100)
    t.mod_after(200)  # re-arm replaces the earlier expiry
    sim.run()
    assert fired == [200]


def test_del_timer_cancels():
    sim = Simulator()
    fired = []
    t = Timer(sim, lambda: fired.append(1))
    t.mod_after(100)
    assert t.del_timer() is True
    assert t.del_timer() is False
    sim.run()
    assert fired == []


def test_timer_rearm_from_callback():
    sim = Simulator()
    fired = []
    t = Timer(sim, lambda: None)

    def cb():
        fired.append(sim.now)
        if len(fired) < 3:
            t.mod_after(10)

    t._callback = cb
    t.mod_after(10)
    sim.run()
    assert fired == [10, 20, 30]


def test_expires_property():
    sim = Simulator()
    t = Timer(sim, lambda: None)
    assert t.expires is None
    t.mod_timer(250)
    assert t.expires == 250
    t.del_timer()
    assert t.expires is None


def test_mod_timer_in_past_clamps_to_now():
    sim = Simulator()
    fired = []
    t = Timer(sim, lambda: fired.append(sim.now))
    sim.call_at(100, lambda: t.mod_timer(50))
    sim.run()
    assert fired == [100]
