"""Unit tests for generator-based processes and events."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.process import Delay, Process, SimEvent


def test_delay_sequencing():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(("start", sim.now))
        yield Delay(100)
        trace.append(("mid", sim.now))
        yield Delay(50)
        trace.append(("end", sim.now))

    Process(sim, proc())
    sim.run()
    assert trace == [("start", 0), ("mid", 100), ("end", 150)]


def test_process_result():
    sim = Simulator()

    def proc():
        yield Delay(1)
        return 42

    p = Process(sim, proc())
    sim.run()
    assert not p.alive
    assert p.result == 42


def test_event_wakes_all_waiters_with_value():
    sim = Simulator()
    ev = SimEvent(sim)
    got = []

    def waiter(tag):
        value = yield ev
        got.append((tag, value, sim.now))

    Process(sim, waiter("a"))
    Process(sim, waiter("b"))
    sim.call_at(500, ev.fire, "ping")
    sim.run()
    assert sorted(got) == [("a", "ping", 500), ("b", "ping", 500)]


def test_event_is_reusable():
    sim = Simulator()
    ev = SimEvent(sim)
    wakes = []

    def waiter():
        yield ev
        wakes.append(sim.now)
        yield ev
        wakes.append(sim.now)

    Process(sim, waiter())
    sim.call_at(10, ev.fire)
    sim.call_at(20, ev.fire)
    sim.run()
    assert wakes == [10, 20]


def test_late_waiter_blocks_until_next_fire():
    sim = Simulator()
    ev = SimEvent(sim)
    wakes = []

    def waiter():
        yield Delay(50)  # arrive after the first fire
        yield ev
        wakes.append(sim.now)

    Process(sim, waiter())
    sim.call_at(10, ev.fire)
    sim.call_at(90, ev.fire)
    sim.run()
    assert wakes == [90]


def test_yield_from_composition():
    sim = Simulator()

    def inner():
        yield Delay(30)
        return "inner-result"

    def outer():
        value = yield from inner()
        return (value, sim.now)

    p = Process(sim, outer())
    sim.run()
    assert p.result == ("inner-result", 30)


def test_join_returns_result():
    sim = Simulator()

    def worker():
        yield Delay(100)
        return 7

    results = []

    def boss(w):
        value = yield from w.join()
        results.append((value, sim.now))

    w = Process(sim, worker())
    Process(sim, boss(w))
    sim.run()
    assert results == [(7, 100)]


def test_join_after_completion_is_immediate():
    sim = Simulator()

    def worker():
        yield Delay(10)
        return "done"

    w = Process(sim, worker())
    results = []

    def boss():
        yield Delay(500)
        value = yield from w.join()
        results.append((value, sim.now))

    Process(sim, boss())
    sim.run()
    assert results == [("done", 500)]


def test_process_error_propagates_at_join():
    sim = Simulator()

    def worker():
        yield Delay(10)
        raise ValueError("boom")

    w = Process(sim, worker())
    caught = []

    def boss():
        try:
            yield from w.join()
        except ValueError as exc:
            caught.append(str(exc))

    Process(sim, boss())
    sim.run()
    assert caught == ["boom"]
    assert isinstance(w.error, ValueError)


def test_kill_stops_process():
    sim = Simulator()
    trace = []

    def worker():
        trace.append("start")
        yield Delay(1000)
        trace.append("never")

    w = Process(sim, worker())
    sim.call_at(100, w.kill)
    sim.run()
    assert trace == ["start"]
    assert not w.alive


def test_bad_yield_is_an_error():
    sim = Simulator()

    def worker():
        yield 123  # not a Delay or SimEvent

    w = Process(sim, worker())
    sim.run()
    assert isinstance(w.error, TypeError)


@pytest.mark.parametrize("junk", [None, 123, "Delay", (), Delay, object()])
def test_only_armable_yields_are_accepted(junk):
    """Delay, SimEvent and anything else with `_arm(proc)` may be
    yielded; everything else still ends the process with TypeError."""
    sim = Simulator()

    def worker():
        yield junk

    w = Process(sim, worker(), name="w")
    sim.run()
    assert isinstance(w.error, TypeError) and not w.alive
    assert "'w' yielded" in str(w.error)


def test_duck_typed_arm_schedules_the_resume_itself():
    """The `_arm(proc)` protocol: the yielded object arranges for
    `proc._resume(value)`; the process layer adds no event of its own."""
    sim = Simulator()

    class At:
        def __init__(self, when):
            self.when = when

        def _arm(self, proc):
            sim.call_at(self.when, proc._resume, f"woke@{self.when}")

    got = []

    def worker():
        got.append((yield At(40)))
        got.append((yield At(75)))
        return sim.now

    w = Process(sim, worker())
    sim.run()
    assert got == ["woke@40", "woke@75"] and w.result == 75
    assert sim.events_processed == 3          # start + the two resumes


def test_async_base_exception_is_not_stored_as_a_process_error():
    """What a wall-clock alarm raises inside a generator must stop the
    run, not become `proc.error` of a quietly dead process."""
    class Alarm(BaseException):
        pass

    sim = Simulator()
    after = []

    def worker():
        yield Delay(5)
        raise Alarm()

    w = Process(sim, worker())
    sim.call_at(9, after.append, "ran on")
    with pytest.raises(Alarm):
        sim.run()
    assert w.error is None and after == []


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Delay(-5)


def test_fire_without_waiters_counts_and_wakes_nobody():
    sim = Simulator()
    ev = SimEvent(sim)
    assert ev.fire("ignored") == 0
    assert ev.fire() == 0
    assert ev.fire_count == 2
    assert sim.pending() == 0               # nothing was scheduled
    woke = []

    def waiter():
        woke.append((yield ev))

    Process(sim, waiter())
    sim.run()
    assert ev.waiting == 1
    assert ev.fire("now") == 1 and ev.fire_count == 3
    sim.run()
    assert woke == ["now"] and ev.waiting == 0
