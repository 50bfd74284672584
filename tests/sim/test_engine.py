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
        self.seen = []          # (callback, args, sim_dt_us)

    def execute(self, callback, args, sim_dt_us):
        self.seen.append((callback, args, sim_dt_us))
        callback(*args)


def test_watch_executes_each_firing_once_with_its_advance():
    """Every firing reaches `execute` exactly once, with its arguments
    and the clock advance it made -- including the entries a firing
    schedules."""
    sim = Simulator()
    sim.watch = watch = Watch()
    log = []

    def spawn(tag):
        log.append(tag)
        sim.call_after(5, log.append, tag + "-child")

    sim.call_at(10, log.append, "a")
    sim.call_at(10, spawn, "b")
    sim.call_at(30, log.append, "c")
    sim.run()
    assert log == ["a", "b", "b-child", "c"]
    assert [(args, dt) for _, args, dt in watch.seen] == [
        (("a",), 10), (("b",), 0), (("b-child",), 5), (("c",), 15)]
    assert len(watch.seen) == sim.events_processed == 4


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
    sim.call_at(100, lambda: None)
    sim.run(until=60)
    assert watch.seen == [] and sim.now == 60
    sim.run(until=99)
    assert watch.seen == []
    sim.run()
    [(_, _, dt)] = watch.seen
    assert dt == 1                          # 99 -> 100


def test_watch_under_step():
    """A run stepped one instant at a time with `until` hands the watch
    each firing's advance, as one whole run does."""
    sim = Simulator()
    sim.watch = watch = Watch()
    sim.call_at(5, lambda: None)
    sim.call_at(15, lambda: None)
    for until in (5, 15):
        sim.run(until=until)
    assert [dt for *_, dt in watch.seen] == [5, 10]


def test_watch_sees_a_raising_callback_once():
    def boom():
        raise RuntimeError("x")

    sim = Simulator()
    sim.watch = watch = Watch()
    sim.call_at(10, boom)
    sim.call_at(20, lambda: None)
    with pytest.raises(RuntimeError):
        sim.run()
    assert [(cb, dt) for cb, _, dt in watch.seen] == [(boom, 10)]
    assert sim.pending() == 1


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
    for until in (5, 15):                      # one instant per run
        sim.run(until=until)
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
    """The default (no watch) path still runs everything, from entries
    that hold nothing past the arguments and the instant's followers."""
    sim = Simulator()
    assert sim.watch is None
    fired = []
    first = sim.call_at(1, fired.append, 1)
    assert len(first) == 5 and first[4] is None
    assert len(sim.call_at(1, fired.append, 2)) == 5
    sim.run()
    assert fired == [1, 2]


# -- list heap entries [time, order, callback, args, followers] -------------

def test_entry_layout_and_cancel_rule():
    sim = Simulator()
    entry = sim.call_at(10, print, "a", "b")
    assert entry == [10, 0, print, ("a", "b"), None]
    joined = sim.call_at(10, print)
    assert joined[1] == 1                      # order numbers are unique
    assert entry[4] == [joined] == [[10, 1, print, (), None]]
    assert len(sim._heap) == 1                 # one heap entry per instant
    sim.cancel(entry)
    assert entry[2] is None                    # cancelled = no callback
    assert sim.pending() == 1


def test_cancelling_an_entry_that_fired_is_a_no_op():
    """A fired entry has no callback left, so `cancel` leaves the books
    alone: `pending` never goes negative and nothing counts as dead."""
    sim = Simulator()
    head = sim.call_at(5, lambda: None)
    follower = sim.call_at(5, lambda: None)
    sim.run()
    sim.cancel(head)
    sim.cancel(follower)
    assert (sim.pending(), sim._dead) == (0, 0)
    sim.call_at(7, lambda: None)
    assert sim.pending() == 1
    sim.run()
    assert (sim.pending(), sim._dead, sim.events_processed) == (0, 0, 3)


# -- followers: the pushes that joined their instant's heap entry -----------

def test_pushes_made_while_an_instant_fires_fire_in_it_in_fifo_order():
    """A push for the firing instant, made by its head or by one of its
    followers, fires in that instant after everything pushed before it.
    The fired tail is not joined: the first such push takes a heap slot
    and becomes the tail the next ones join."""
    sim = Simulator()
    log = []

    def head():
        log.append("head")
        sim.call_after(0, log.append, "by-head")

    def follower():
        log.append("follower")
        sim.call_after(0, chained)

    def chained():
        log.append("by-follower")
        sim.call_after(0, log.append, "by-chained")

    sim.call_at(11, log.append, "later")
    sim.call_at(10, head)                      # the tail from here on
    sim.call_at(10, follower)
    sim.call_at(10, log.append, "third")
    sim.run()
    assert log == ["head", "follower", "third", "by-head", "by-follower",
                   "by-chained", "later"]
    # later, head, by-head (joined by by-follower), by-chained
    assert sim.heap_pushes() == 4 and sim.joins == 3


def test_a_push_for_a_firing_instant_that_is_not_the_tail_still_fires_in_it():
    sim = Simulator()
    log = []

    def head():
        log.append("head")
        sim.call_after(0, log.append, "by-head")

    sim.call_at(10, head)
    sim.call_at(10, log.append, "follower")
    sim.call_at(11, log.append, "later")       # the tail
    sim.run()
    assert log == ["head", "follower", "by-head", "later"]
    assert sim.heap_pushes() == 3 and sim.joins == 1
    assert (sim.pending(), sim._dead) == (0, 0)


def test_a_lone_head_that_pushes_for_its_own_instant():
    sim = Simulator()
    log = []
    sim.call_at(10, sim.call_after, 0, log.append, "same instant")
    sim.run()
    assert log == ["same instant"] and sim.heap_pushes() == 2


def test_a_discarded_cancelled_tail_is_not_joined():
    sim = Simulator()
    log = []
    sim.call_at(5, log.append, "first")
    tail = sim.call_at(30, log.append, "never")
    sim.cancel(tail)
    sim.run()                                   # discards the tail
    assert sim.now == 5
    sim.call_at(30, log.append, "joins-no-one")
    sim.run()
    assert log == ["first", "joins-no-one"]


def test_a_push_after_the_instant_fired_takes_a_new_heap_entry():
    sim = Simulator()
    log = []
    sim.call_at(10, log.append, "a")
    sim.run()
    sim.call_at(10, log.append, "b")           # the fired tail is not joined
    assert len(sim._heap) == 1 and sim.joins == 0
    sim.run()
    assert log == ["a", "b"]


def _instant(sim, log, n=5, when=10):
    return [sim.call_at(when, log.append, i) for i in range(n)]


def test_run_until_with_a_joined_entry():
    """A joined instant past `until` goes back whole and later pushes
    for it still join it; one at `until` fires whole."""
    sim = Simulator()
    log = []
    _instant(sim, log, n=3, when=50)
    sim.run(until=49)
    assert log == [] and sim.pending() == 3 and len(sim._heap) == 1
    sim.call_at(50, log.append, "joined")
    assert len(sim._heap) == 1
    sim.run(until=50)
    assert log == [0, 1, 2, "joined"] and sim.now == 50
    assert sim.pending() == 0


def test_cancelling_a_head_leaves_its_followers_live():
    sim = Simulator()
    log = []
    head, *followers = _instant(sim, log, n=4)
    sim.cancel(head)
    sim.cancel(followers[1])
    assert sim.pending() == 2
    sim.run()
    assert log == [1, 3]
    assert (sim.pending(), sim._dead) == (0, 0)


def test_compaction_keeps_a_cancelled_heads_followers_in_order():
    sim = Simulator()
    log = []
    groups = [_instant(sim, log, n=3, when=t) for t in (10, 20, 30)]
    others = [sim.call_at(100 + i, log.append, "x") for i in range(200)]
    for g in groups:
        sim.cancel(g[0])                      # heads with live followers
    for e in reversed(others):                # the tail (t=299) goes first
        sim.cancel(e)
    assert sim.compactions > 0
    keys = {e[1] for e in sim._heap}
    assert {g[1][1] for g in groups} <= keys   # first followers promoted
    assert not {g[0][1] for g in groups} & keys
    sim.call_at(299, log.append, "tail-dropped")  # must not join it
    sim.run()
    assert log == [1, 2, 1, 2, 1, 2, "tail-dropped"]
    assert (sim.pending(), sim._dead) == (0, 0)


def test_compaction_while_an_instant_fires_keeps_the_books():
    """The firing instant is off the heap: its cancelled followers stay
    counted until the loop reaches them, so `_dead` never goes negative."""
    sim = Simulator()
    log = []
    others = [sim.call_at(100 + i, log.append, "x") for i in range(200)]

    def purge():
        for e in others:
            sim.cancel(e)
        log.append(("purged", sim.compactions, sim._dead))

    sim.call_at(10, purge)
    doomed = sim.call_at(10, log.append, "never")
    sim.call_at(10, log.append, "after")
    sim.cancel(doomed)
    sim.run()
    assert log[0][0] == "purged" and log[0][1] >= 1
    assert log[0][2] >= 1                      # `doomed` still counted
    assert log[1:] == ["after"]
    assert (sim.pending(), sim._dead) == (0, 0)


def test_a_raising_callback_leaves_the_rest_of_its_instant_scheduled():
    def boom():
        raise RuntimeError("x")

    sim = Simulator()
    log = []
    sim.call_at(10, boom)
    sim.call_at(10, log.append, "rest")
    with pytest.raises(RuntimeError):
        sim.run()
    assert sim.pending() == 1
    sim.run()
    assert log == ["rest"]


def test_a_raising_follower_leaves_the_followers_after_it_scheduled():
    """A follower that raises stops the run inside its instant: the
    followers the loop had not reached go back in order (a cancelled one
    among them stays counted until it is passed), and a push for the
    instant fires behind them."""
    def boom():
        raise RuntimeError("x")

    sim = Simulator()
    log = []
    sim.call_at(10, log.append, 0)
    sim.call_at(10, log.append, 1)
    sim.call_at(10, boom)
    sim.cancel(sim.call_at(10, log.append, "never"))
    sim.call_at(10, log.append, 4)
    sim.call_at(20, log.append, "later")
    with pytest.raises(RuntimeError):
        sim.run()
    assert log == [0, 1] and sim.now == 10
    assert (sim.pending(), sim._dead) == (2, 1)
    sim.call_at(10, log.append, "pushed")
    sim.run()
    assert log == [0, 1, 4, "pushed", "later"]
    assert (sim.pending(), sim._dead, sim._heap) == (0, 0, [])


def test_timer_pending_and_expires_on_a_follower():
    from repro.sim.timer import Timer
    sim = Simulator()
    fired = []
    sim.call_at(40, lambda: None)              # the instant's head
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.mod_timer(40)
    assert timer._entry is sim._heap[0][4][0]  # a follower
    assert timer.pending and timer.expires == 40
    timer.mod_timer(40)                        # re-armed: joins again
    assert timer.pending and timer.expires == 40
    assert sim.pending() == 2
    sim.run()
    assert fired == [40]
    assert not timer.pending and timer.expires is None


def test_a_watched_run_sees_every_follower_once():
    sim = Simulator()
    sim.watch = watch = Watch()
    log = []
    sim.call_at(25, log.append, "next")
    entries = _instant(sim, log, n=6, when=10)    # the tail
    sim.cancel(entries[2])
    sim.call_at(10, sim.call_after, 0, log.append, "late")
    sim.run()
    assert sim.heap_pushes() == 3               # "late": the tail had fired
    assert log == [0, 1, 3, 4, 5, "late", "next"]
    assert [(args[-1], dt) for _, args, dt in watch.seen] == [
        (0, 10), (1, 0), (3, 0), (4, 0), (5, 0),
        ("late", 0),                           # the call_after
        ("late", 0), ("next", 15)]
    assert len(watch.seen) == sim.events_processed == 8


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


def test_now_is_a_plain_int_attribute_and_times_stay_ints():
    """`now` is read on every packet, so it is an attribute, not a
    property (`run` raises if a callback assigns it); a float
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


def _jump(sim, delta):
    sim.now += delta


def _expect_clock_error(sim, when, moved_to):
    sim.call_at(when, _jump, sim, moved_to - when)
    sim.call_at(when + 50, lambda: None)
    with pytest.raises(SimulationError, match=(
            f"_jump moved the clock from t={when} to t={moved_to}")):
        sim.run()
    assert sim.pending() == 1


def test_a_callback_that_moves_the_clock_forward_is_refused():
    _expect_clock_error(Simulator(), 100, 130)


def test_a_callback_that_moves_the_clock_back_is_refused():
    _expect_clock_error(Simulator(), 100, 40)


def test_a_watched_callback_that_moves_the_clock_is_refused():
    from repro.obs.profiler import SimProfiler
    sim = Simulator()
    sim.watch = prof = SimProfiler()
    _expect_clock_error(sim, 100, 130)
    assert prof.events == 1
