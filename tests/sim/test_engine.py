"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Simulator, SimulationError


def test_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0
    assert sim.pending() == 0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.call_at(30, order.append, "c")
    sim.call_at(10, order.append, "a")
    sim.call_at(20, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_fifo():
    sim = Simulator()
    order = []
    for tag in "abcde":
        sim.call_at(100, order.append, tag)
    sim.run()
    assert order == list("abcde")


def test_call_after_relative():
    sim = Simulator()
    seen = []
    sim.call_after(5, lambda: sim.call_after(7, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [12]


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.call_at(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(5, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_after(-1, lambda: None)


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    entry = sim.call_at(10, fired.append, 1)
    sim.call_at(20, fired.append, 2)
    sim.cancel(entry)
    sim.run()
    assert fired == [2]


def test_cancel_is_idempotent():
    sim = Simulator()
    entry = sim.call_at(10, lambda: None)
    sim.cancel(entry)
    sim.cancel(entry)
    assert sim.pending() == 0
    sim.run()


def test_run_until_advances_clock_exactly():
    sim = Simulator()
    sim.call_at(10, lambda: None)
    sim.call_at(100, lambda: None)
    sim.run(until=50)
    assert sim.now == 50
    assert sim.pending() == 1


def test_run_until_includes_boundary_events():
    sim = Simulator()
    fired = []
    sim.call_at(50, fired.append, 1)
    sim.run(until=50)
    assert fired == [1]


def test_max_events_budget():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.call_at(i, fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_step_single_event():
    sim = Simulator()
    fired = []
    sim.call_at(5, fired.append, "x")
    assert sim.step() is True
    assert fired == ["x"]
    assert sim.step() is False


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 5:
            sim.call_after(1, chain, n + 1)

    sim.call_at(0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5


def test_pending_counts_live_entries():
    sim = Simulator()
    e1 = sim.call_at(10, lambda: None)
    sim.call_at(20, lambda: None)
    assert sim.pending() == 2
    sim.cancel(e1)
    assert sim.pending() == 1


def test_peek_time_skips_cancelled():
    sim = Simulator()
    e1 = sim.call_at(10, lambda: None)
    sim.call_at(20, lambda: None)
    sim.cancel(e1)
    assert sim.peek_time() == 20


def test_events_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.call_at(i, lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_compaction_purges_cancelled_entries():
    """Cancelling most of a large heap triggers compaction, and the
    surviving events still fire in order."""
    sim = Simulator()
    fired = []
    entries = [sim.call_at(i + 1, fired.append, i + 1) for i in range(500)]
    # cancel everything but every 10th event: dead quickly outnumbers
    # live past COMPACT_MIN, so the heap must rebuild at least once
    for i, e in enumerate(entries):
        if (i + 1) % 10:
            sim.cancel(e)
    assert sim.compactions > 0
    # the heap holds the 50 live entries plus only the few cancelled
    # since the last rebuild -- not all 450 dead ones
    assert sim.pending() == 50
    assert len(sim._heap) == 50 + sim._dead < 500
    sim.run()
    assert fired == list(range(10, 501, 10))


def test_no_compaction_below_threshold():
    """Tiny heaps are not worth rebuilding."""
    sim = Simulator()
    entries = [sim.call_at(i + 1, lambda: None) for i in range(20)]
    for e in entries:
        sim.cancel(e)
    assert sim.compactions == 0
    sim.run()


def test_compaction_counters_consistent_after_run():
    sim = Simulator()
    fired = []
    for round_ in range(5):
        entries = [sim.call_at(sim.now + i + 1, fired.append, round_)
                   for i in range(200)]
        for e in entries[:150]:
            sim.cancel(e)
        sim.run()
    assert len(fired) == 5 * 50
    assert sim.pending() == 0
    assert sim._dead == 0


# -- the event hook: Simulator.watch ----------------------------------------

class Watch:
    """A watch that records what the engine hands it, then runs it."""

    def __init__(self):
        self.current = 0
        self.seen = []          # (callback, args, cause, sim_dt_us)

    def execute(self, callback, args, cause, sim_dt_us):
        self.seen.append((callback, args, cause, sim_dt_us))
        self.current = cause
        callback(*args)


def test_watch_executes_each_firing_once_with_its_advance_and_cause():
    """Every firing reaches `execute` exactly once, with the clock
    advance it caused and the context it was scheduled in -- including
    the entries a firing schedules under the context it set."""
    sim = Simulator()
    sim.watch = watch = Watch()
    log = []

    def spawn(tag):
        log.append(tag)
        watch.current = 9
        sim.call_after(5, log.append, tag + "-child")

    watch.current = 3
    sim.call_at(10, log.append, "a")
    watch.current = 4
    sim.call_at(10, spawn, "b")
    watch.current = 0
    sim.call_at(30, log.append, "c")
    sim.run()
    assert log == ["a", "b", "b-child", "c"]
    assert [(args, cause, dt) for _, args, cause, dt in watch.seen] == [
        (("a",), 3, 10), (("b",), 4, 0), (("b-child",), 9, 5),
        (("c",), 0, 15)]
    assert len(watch.seen) == sim.events_processed == 4
    assert watch.current == 0               # reset when the run returns


def test_watch_never_sees_a_cancelled_or_compacted_entry():
    sim = Simulator()
    sim.watch = watch = Watch()
    entries = [sim.call_at(i + 1, lambda: None) for i in range(500)]
    for i, e in enumerate(entries):
        if (i + 1) % 10:
            sim.cancel(e)
    assert sim.compactions > 0
    sim.run()
    assert [dt for *_, dt in watch.seen] == [10] * 50
    assert len(watch.seen) == sim.events_processed == 50


def test_watch_sees_an_entry_pushed_back_by_until_once_when_it_fires():
    sim = Simulator()
    sim.watch = watch = Watch()
    watch.current = 7
    sim.call_at(100, lambda: None)
    watch.current = 0
    sim.run(until=60)
    assert watch.seen == [] and sim.now == 60
    sim.run(until=99)
    assert watch.seen == []
    sim.run()
    [(_, _, cause, dt)] = watch.seen
    assert (cause, dt) == (7, 1)            # 99 -> 100


def test_watch_under_step():
    sim = Simulator()
    sim.watch = watch = Watch()
    sim.call_at(5, lambda: None)
    sim.call_at(15, lambda: None)
    while sim.step():
        pass
    assert [dt for *_, dt in watch.seen] == [5, 10]


def test_watch_sees_a_raising_callback_once():
    def boom():
        raise RuntimeError("x")

    sim = Simulator()
    sim.watch = watch = Watch()
    watch.current = 5
    sim.call_at(10, boom)
    sim.call_at(20, lambda: None)
    with pytest.raises(RuntimeError):
        sim.run()
    assert [(cb, cause, dt) for cb, _, cause, dt in watch.seen] == \
        [(boom, 5, 10)]
    assert watch.current == 0 and sim.pending() == 1


def test_profiler_receives_every_executed_callback():
    from repro.obs.profiler import SimProfiler
    sim = Simulator()
    sim.watch = prof = SimProfiler()
    for i in range(5):
        sim.call_at(i * 10, lambda: None)
    sim.run()
    assert prof.events == 5 == sim.events_processed


def test_profiler_attribution_exact_under_cancel():
    """Cancelled entries never reach the profiler, so per-site counts
    equal callbacks actually executed."""
    from repro.obs.profiler import SimProfiler, site_of

    def victim():
        pass

    def survivor():
        pass

    sim = Simulator()
    sim.watch = prof = SimProfiler()
    victims = [sim.call_at(i + 1, victim) for i in range(10)]
    for e in victims[:7]:
        sim.cancel(e)
    for i in range(4):
        sim.call_at(i + 20, survivor)
    sim.run()
    sites = prof.sites
    assert sites[site_of(victim)].events == 3
    assert sites[site_of(survivor)].events == 4
    assert prof.events == 7


def test_profiler_attribution_exact_under_compaction():
    """Heap compaction discards only never-to-fire entries: attribution
    is unchanged by however many rebuilds happen."""
    from repro.obs.profiler import SimProfiler, site_of

    def kept():
        pass

    sim = Simulator()
    sim.watch = prof = SimProfiler()
    entries = [sim.call_at(i + 1, kept) for i in range(500)]
    for i, e in enumerate(entries):
        if (i + 1) % 10:
            sim.cancel(e)
    assert sim.compactions > 0
    sim.run()
    assert prof.sites[site_of(kept)].events == 50
    assert prof.events == 50


def test_profiler_sim_time_attribution_sums_to_final_clock():
    """Each firing is charged the virtual-clock advance it caused, so
    the per-site sim_us totals partition the run's final time."""
    from repro.obs.profiler import SimProfiler
    sim = Simulator()
    sim.watch = prof = SimProfiler()
    sim.call_at(100, lambda: None)
    sim.call_at(100, lambda: None)   # same instant: zero advance
    sim.call_at(250, lambda: None)
    sim.call_at(1000, lambda: None)
    sim.run()
    total = sum(s.sim_us for s in prof.sites.values())
    assert total == sim.now == 1000


def test_profiler_step_parity_with_run():
    from repro.obs.profiler import SimProfiler
    sim = Simulator()
    sim.watch = prof = SimProfiler()
    sim.call_at(5, lambda: None)
    sim.call_at(15, lambda: None)
    while sim.step():
        pass
    assert prof.events == 2
    total = sum(s.sim_us for s in prof.sites.values())
    assert total == 15


def test_profiler_attributes_raising_callbacks():
    """A callback that raises is still attributed (try/finally), so the
    profile stays exact even when a run dies mid-flight."""
    from repro.obs.profiler import SimProfiler

    def boom():
        raise RuntimeError("x")

    sim = Simulator()
    sim.watch = prof = SimProfiler()
    sim.call_at(10, boom)
    with pytest.raises(RuntimeError):
        sim.run()
    assert prof.events == 1
    assert prof.wall_ns_total > 0


def test_no_profiler_no_overhead_path():
    """The default (no watch) path still runs everything and captures
    no context."""
    sim = Simulator()
    assert sim.watch is None
    fired = []
    assert sim.call_at(1, fired.append, 1)[4] == 0
    sim.run()
    assert fired == [1]


# -- list heap entries [time, order, callback, args, cause] -----------------

def test_entry_layout_and_cancel_rule():
    sim = Simulator()
    entry = sim.call_at(10, print, "a", "b")
    assert entry == [10, 0, print, ("a", "b"), 0]
    assert sim.call_at(10, print)[1] == 1      # order numbers are unique
    sim.cancel(entry)
    assert entry[2] is None                    # cancelled = no callback
    assert sim.pending() == 1


def test_same_instant_fifo_never_compares_callbacks():
    """Ordering is decided by (time, order) alone: entries for one
    instant fire in scheduling order whatever their callbacks and
    arguments are, including ones that cannot be compared."""
    class Opaque:
        __lt__ = __gt__ = __le__ = __ge__ = None   # comparing would raise

        def __init__(self, log, tag):
            self.log, self.tag = log, tag

        def __call__(self, *args):
            self.log.append(self.tag)

    sim = Simulator()
    log = []
    for i in range(200):
        sim.call_at(7 if i % 3 else 3, Opaque(log, i), Opaque(log, None))
    sim.run()
    assert log == [i for i in range(200) if i % 3 == 0] + \
                  [i for i in range(200) if i % 3]


def test_same_instant_fifo_survives_compaction():
    sim = Simulator()
    fired = []
    entries = [sim.call_at(50, fired.append, i) for i in range(400)]
    for i, e in enumerate(entries):
        if i % 8:
            sim.cancel(e)
    assert sim.compactions > 0
    sim.run()
    assert fired == list(range(0, 400, 8))


def test_peek_time_drops_cancelled_heads_and_keeps_counts():
    sim = Simulator()
    heads = [sim.call_at(t, lambda: None) for t in (1, 2, 3)]
    sim.call_at(9, lambda: None)
    for e in heads:
        sim.cancel(e)
    assert sim._dead == 3
    assert sim.peek_time() == 9
    assert sim._dead == 0 and len(sim._heap) == 1
    sim.cancel(sim._heap[0])
    assert sim.peek_time() is None
    assert sim.pending() == 0


def test_pending_entries_in_firing_order():
    sim = Simulator()
    late = sim.call_at(30, print)
    dead = sim.call_at(10, print)
    first = sim.call_at(20, print, 1)
    second = sim.call_at(20, print, 2)
    sim.cancel(dead)
    assert sim.pending_entries() == [first, second, late]
    assert sim.pending_entries(limit=1) == [first]
    assert sim.pending() == 3                  # undisturbed


def test_run_until_leaves_the_next_entry_in_place():
    """An entry past `until` goes back to the heap under the same key:
    later runs fire it in its original same-instant position."""
    sim = Simulator()
    fired = []
    sim.call_at(100, fired.append, "a")
    sim.call_at(100, fired.append, "b")
    sim.run(until=99)
    assert fired == [] and sim.pending() == 2 and sim.now == 99
    sim.call_at(100, fired.append, "c")
    sim.run(until=99)                          # again, nothing due
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.events_processed == 3


def _scripted(sim, log):
    """A little of everything: same-instant entries, a cancelled head,
    a callback that schedules and one that cancels."""
    def spawn(tag):
        log.append((sim.now, tag))
        sim.call_after(0, log.append, (sim.now, tag + "-child"))

    doomed = sim.call_at(1, log.append, "never")
    sim.call_at(5, spawn, "x")
    victim = sim.call_at(6, log.append, "never-either")
    sim.call_at(5, sim.cancel, victim)
    sim.call_at(5, spawn, "y")
    sim.call_at(8, log.append, (8, "last"))
    sim.cancel(doomed)


def test_step_is_run_with_a_budget_of_one():
    stepped, budgeted, plain = [], [], []
    a, b, c = Simulator(), Simulator(), Simulator()
    _scripted(a, stepped)
    _scripted(b, budgeted)
    _scripted(c, plain)
    steps = 0
    while a.step():
        steps += 1
        before = b.events_processed
        b.run(max_events=1)
        assert b.events_processed == before + 1
        assert (a.now, a.pending(), a._dead, stepped) == \
               (b.now, b.pending(), b._dead, budgeted)
    c.run()
    assert stepped == budgeted == plain
    assert steps == a.events_processed == c.events_processed == 6
    assert a.step() is False and a.events_processed == 6


def test_step_restores_lineage_context():
    """The context an entry captured is what `execute` is handed under
    `step()` too, and the watch's context is 0 again afterwards."""
    sim = Simulator()
    sim.watch = watch = Watch()
    watch.current = 41
    sim.call_at(1, lambda: None)
    watch.current = 0
    assert sim.step()
    assert [cause for _, _, cause, _ in watch.seen] == [41]
    assert watch.current == 0


def test_now_is_a_plain_int_attribute_and_times_stay_ints():
    """`now` is read on every packet, so it is an attribute, not a
    property (simlint R8 keeps model code from assigning it); a float
    time is truncated on the way into the heap, as `int(when)` always
    did, and an int is stored as it is."""
    sim = Simulator()
    assert "now" in vars(sim) and not hasattr(type(sim), "now")
    seen = []
    entry = sim.call_at(10.9, lambda: seen.append(sim.now))
    assert entry[0] == 10 and type(entry[0]) is int
    assert sim.call_after(2.5, seen.append, "after")[0] == 2
    assert type(sim.call_at(True, seen.append, "bool")[0]) is int
    when = 7
    assert sim.call_at(when, seen.append, "int")[0] is when
    sim.run()
    assert seen == ["bool", "after", "int", 10]
    assert type(sim.now) is int and sim.now_seconds() == 10 / 1e6
