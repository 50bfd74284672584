"""The profiler's event-class taxonomy and tax table.

Every callback lands in a stable event class with >= 95 % coverage on
real workloads, and the table rides the engine's one hook without
touching the protocol (zero perturbation is proven in
test_perf_disabled.py).
"""

import ast
import pathlib

import pytest

import repro
from repro.harness.runner import run_transfer
from repro.obs.observer import Observability
from repro.obs.perf import EVENT_CLASSES, classify
from repro.obs.perf.taxonomy import TIMER_CLASSES, infer, timer_class
from repro.sim.engine import Simulator
from repro.sim.timer import Timer
from repro.trace.tracer import PacketTracer
from repro.workloads.scenarios import build_lan
from tests.harness.test_pinned_stats import PINNED, SEED


def _profiled_run(nbytes=200_000):
    obs = Observability(profile=True)
    sc = build_lan(3, 100e6, seed=7)
    res = run_transfer(sc, nbytes=nbytes, sndbuf=128 * 1024,
                       max_sim_s=120, obs=obs)
    assert res.ok
    return obs.profiler, res


# -- taxonomy ----------------------------------------------------------


def test_every_timer_the_stack_creates_is_in_the_name_table():
    """The name table is the one place a timer's class is decided: every
    `Timer(...)` in the source names its timer with a literal the table
    holds, and a timer of that name is classed by it."""
    names = []
    for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) == "Timer":
                [name] = node.args[2:3] + [k.value for k in node.keywords
                                           if k.arg == "name"]
                names.append(name.value)
    assert len(names) == 12 and set(names) <= set(TIMER_CLASSES)
    sim = Simulator()
    for name in names:
        timer = Timer(sim, lambda: None, name)
        assert classify(timer._fire) == TIMER_CLASSES[name]


def test_timer_name_fallback_memoizes():
    """Nothing is kept on the timer: its class is read from its name
    each time, so a renamed timer is classed by the new name."""
    sim = Simulator()
    t = Timer(sim, lambda: None, name="nak")
    assert classify(t._fire) == "nak-repair-timer"
    assert not hasattr(t, "event_class")
    t.name = "transmit"
    assert classify(t._fire) == "jiffy-timer"


def test_timer_class_names():
    assert timer_class("transmit") == "jiffy-timer"
    assert timer_class("retrans") == "nak-repair-timer"
    assert timer_class("rto") == "nak-repair-timer"
    # unknown timer names degrade to the periodic-tick class
    assert timer_class("mystery") == "jiffy-timer"


def test_infer_rules():
    assert infer("repro.net.nic", "NetworkInterface._tx_done") == "nic-tx"
    assert infer("repro.net.link", "Pipe.deliver") == "link"
    assert infer("repro.sim.process", "Process._resume") == "app"
    assert infer("repro.obs.metrics", "Registry.scrape") == "fleet-harness"
    assert infer("some.third.party", "Thing.cb") == "other"


# -- tax table on a real run ------------------------------------------


def test_tax_table_coverage_meets_bar():
    perf, res = _profiled_run()
    assert perf.events == res.sim_events
    # the acceptance bar: >= 95 % of callbacks placed in a named class
    assert perf.coverage() >= 0.95
    rows = perf.tax_rows()
    classes = [r[0] for r in rows]
    assert set(classes) <= set(EVENT_CLASSES)
    # the LAN transfer exercises the full stack
    for expected in ("jiffy-timer", "nic-tx", "nic-rx", "link", "app"):
        assert expected in classes
    # events add up to the engine's count
    assert sum(r[1] for r in rows) == res.sim_events


#: engine events per class of two pinned transfers, recorded while
#: every timer still carried its class from its construction site
PINNED_CLASS_EVENTS = {
    "lan-2": {"app": 2831, "fleet-harness": 17, "jiffy-timer": 87,
              "link": 1507, "nic-rx": 2880, "nic-tx": 3014},
    "wan-case-3": {"app": 2773, "fleet-harness": 56, "jiffy-timer": 331,
                   "link": 3700, "nak-repair-timer": 123, "nic-rx": 2271,
                   "nic-tx": 716},
}


@pytest.mark.parametrize("name", PINNED_CLASS_EVENTS)
def test_class_events_of_the_pinned_transfers(name):
    build, kwargs = PINNED[name][:2]
    obs = Observability(profile=True)
    res = run_transfer(build(), seed=SEED, obs=obs, **kwargs)
    assert res.ok
    classes = obs.profiler.classes
    assert {c: s.events for c, s in classes.items()} == \
        PINNED_CLASS_EVENTS[name]


def test_tax_table_rows_in_taxonomy_order():
    perf, _ = _profiled_run()
    order = {c: i for i, c in enumerate(EVENT_CLASSES)}
    positions = [order[r[0]] for r in perf.tax_rows()]
    assert positions == sorted(positions)


def test_broadcast_fanout_and_cpu_resumes_are_classified():
    from repro.net.link import SharedLink
    from repro.sim.process import Process
    sim = Simulator()
    link = SharedLink(sim, 10e6)
    assert classify(link._deliver_all) == "link"
    proc = Process(sim, iter(()))
    assert classify(proc._resume) == "app"
    # CPU-bound resumes are CPU-completion events now: the pinned run
    # has no throw-away wake-up events left, and nothing falls to other
    perf, _ = _profiled_run()
    by_class = {row[0]: row[1] for row in perf.tax_rows()}
    assert by_class.get("process-wake", 0) == 0
    assert perf.coverage() == 1.0
    assert by_class["link"] > 0 and by_class["app"] > 0


def test_summary_tables_carry_the_tax_table():
    obs = Observability(profile=True)
    res = run_transfer(build_lan(3, 100e6, seed=7), nbytes=200_000,
                       sndbuf=128 * 1024, max_sim_s=120, obs=obs)
    assert res.ok
    title, headers, rows = obs.summary_tables()[-1]
    assert title.startswith("event-class tax table")
    assert "coverage" in title
    assert headers[0] == "class"
    assert rows == obs.profiler.tax_rows()


def test_a_second_watch_on_one_run_raises():
    """One run has one watch, as it has one tracer: a second profiled
    observer is refused, since it would take the engine's events from
    the first, which would then report none."""
    sc = build_lan(2, 10e6, seed=5)
    tracer = PacketTracer().attach(sc.sender, *sc.receivers)
    first = Observability(profile=True).attach(sc, tracer)
    second = Observability(profile=True)
    with pytest.raises(RuntimeError, match="already has a watch"):
        second.attach(sc, tracer)
    assert not second.attached
    assert sc.sim.watch is first.profiler
    Observability().attach(sc, tracer)      # no watch: no conflict
    for t in (10, 20):
        sc.sim.call_at(t, lambda: None)
    sc.sim.run()
    assert first.profiler.events == sc.sim.events_processed == 2
