# simlint: module=repro.core.fixture_r8_good
"""R8 negative: reading the clock, scheduling, and names that merely
contain 'now'."""


def catch_up(sim, host, deadline):
    now = sim.now
    host.last_seen_now = now
    host.now_us = now
    setattr(host, "nowhere", now)
    sim.call_at(max(now, deadline), host.wake)
    return sim.now - now
