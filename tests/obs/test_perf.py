"""Performance observatory: taxonomy, tax table, flamegraph sampling.

The observatory's promises are (a) every callback lands in a stable
event class with >= 95 % coverage on real workloads, (b) the
flamegraph sampler is driven by the deterministic event counter -- two
identical seeded runs sample the same events and emit the same
collapsed stacks (only the wall-time weights differ), and (c) the
whole thing rides the existing profiler hook without touching the
protocol (zero-perturbation is proven in test_perf_disabled.py).
"""

import ast
import pathlib

import pytest

import repro
from repro.harness.runner import run_transfer
from repro.obs.observer import Observability
from repro.obs.perf import (EVENT_CLASSES, PerfObservatory, classify,
                            register_site)
from repro.obs.perf.taxonomy import TIMER_CLASSES, infer, timer_class
from repro.sim.engine import Simulator
from repro.sim.timer import Timer
from repro.workloads.scenarios import build_lan
from tests.harness.test_pinned_stats import PINNED, SEED


def _profiled_run(sample_every=16, alloc=False, nbytes=200_000):
    perf = PerfObservatory(sample_every=sample_every, alloc=alloc)
    obs = Observability(perf=perf)
    sc = build_lan(3, 100e6, seed=7)
    res = run_transfer(sc, nbytes=nbytes, sndbuf=128 * 1024,
                       max_sim_s=120, obs=obs)
    assert res.ok
    return perf, res


# -- taxonomy ----------------------------------------------------------


def test_register_site_rejects_unknown_class():
    with pytest.raises(ValueError, match="unknown event class"):
        register_site(lambda: None, "warp-drive")


def test_register_site_classifies_plain_function():
    def my_callback():
        pass
    register_site(my_callback, "fleet-harness")
    assert classify(my_callback) == "fleet-harness"


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
    assert len(names) == 15 and set(names) <= set(TIMER_CLASSES)
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
    assert timer_class("tcp-rto") == "nak-repair-timer"
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
    perf, res = _profiled_run(sample_every=0)
    assert perf.profiler.events == res.sim_events
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
    perf = PerfObservatory(sample_every=0)
    res = run_transfer(build(), seed=SEED, obs=Observability(perf=perf),
                       **kwargs)
    assert res.ok
    classes = perf.bench_payload()["classes"]
    assert {c: block["events"] for c, block in classes.items()} == \
        PINNED_CLASS_EVENTS[name]


def test_tax_table_rows_in_taxonomy_order():
    perf, _ = _profiled_run(sample_every=0)
    order = {c: i for i, c in enumerate(EVENT_CLASSES)}
    positions = [order[r[0]] for r in perf.tax_rows()]
    assert positions == sorted(positions)


def test_bench_payload_shape():
    perf, res = _profiled_run(sample_every=32)
    payload = perf.bench_payload()
    assert payload["events"] == res.sim_events
    assert payload["coverage"] >= 0.95
    assert payload["flame_samples"] > 0
    assert payload["flame_stacks"] > 0
    for name, block in payload["classes"].items():
        assert name in EVENT_CLASSES
        assert block["events"] > 0


# -- deterministic flamegraph sampling --------------------------------


def test_sampler_counts_and_stacks_deterministic():
    perf_a, res_a = _profiled_run(sample_every=16)
    perf_b, res_b = _profiled_run(sample_every=16)
    # identical runs: identical event streams, so identical samples
    assert res_a.sim_events == res_b.sim_events
    assert perf_a.sampler.samples == perf_b.sampler.samples
    # and identical collapsed stacks -- the *keys* are deterministic
    # (weights are wall time and may differ between executions)
    stacks_a = [line.rsplit(" ", 1)[0] for line in perf_a.collapsed_lines()]
    stacks_b = [line.rsplit(" ", 1)[0] for line in perf_b.collapsed_lines()]
    assert stacks_a == stacks_b


def test_sampler_immune_to_foreign_gc_callbacks():
    """A process-wide gc.callbacks entry (hypothesis registers one) must
    never leak its frames into the sampled stack keys: GC cycles land at
    wall-clock-dependent points, so one run would record the callback's
    frames where the other doesn't.  The sampler defers automatic GC for
    the duration of each sample."""
    import gc

    def nosy_gc_callback(phase, info):
        pass

    thresholds = gc.get_threshold()
    gc.callbacks.append(nosy_gc_callback)
    gc.set_threshold(1)          # collect (and fire callbacks) constantly
    try:
        perf_a, _ = _profiled_run(sample_every=16)
        perf_b, _ = _profiled_run(sample_every=16)
    finally:
        gc.callbacks.remove(nosy_gc_callback)
        gc.set_threshold(*thresholds)
    for key in list(perf_a.sampler.stacks) + list(perf_b.sampler.stacks):
        assert not any("nosy_gc_callback" in label for label in key), key
    stacks_a = [ln.rsplit(" ", 1)[0] for ln in perf_a.collapsed_lines()]
    stacks_b = [ln.rsplit(" ", 1)[0] for ln in perf_b.collapsed_lines()]
    assert stacks_a == stacks_b
    assert gc.isenabled()        # the sampler restored GC afterwards


def test_collapsed_lines_format():
    perf, _ = _profiled_run(sample_every=16)
    lines = perf.collapsed_lines()
    assert lines
    for line in lines:
        stack, weight = line.rsplit(" ", 1)
        assert stack.startswith("engine;")
        assert int(weight) >= 1
    # sorted output: stable diffs between runs
    assert lines == sorted(lines)


def test_collapsed_lines_sorted_when_a_frame_name_prefixes_another():
    # tuple order puts ("f",) < ("f", "g") < ("f.<locals>.h",); line
    # order puts "f.<locals>.h" before "f;g" ('.' sorts before ';')
    from repro.obs.perf.flame import StackSampler
    sampler = StackSampler()
    base = ("engine", "app")
    for frames in (("f", "g"), ("f.<locals>.h",), ("f",)):
        sampler.stacks[base + frames] = 2500
    lines = sampler.collapsed_lines()
    assert lines == ["engine;app;f 2", "engine;app;f.<locals>.h 2",
                     "engine;app;f;g 2"] == sorted(lines)


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
    perf, _ = _profiled_run(sample_every=0)
    by_class = {row[0]: row[1] for row in perf.tax_rows()}
    assert by_class.get("process-wake", 0) == 0
    assert perf.coverage() == 1.0
    assert by_class["link"] > 0 and by_class["app"] > 0


def test_sample_every_zero_disables_sampling():
    perf, _ = _profiled_run(sample_every=0)
    assert perf.sampler is None
    assert perf.collapsed_lines() == []
    assert perf.flame_svg() == ""
    with pytest.raises(RuntimeError, match="disabled"):
        perf.write_collapsed("/dev/null")


def test_flame_svg_renders(tmp_path):
    perf, _ = _profiled_run(sample_every=16)
    svg = perf.flame_svg()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "engine" in svg
    out = tmp_path / "lan.collapsed.txt"
    perf.write_collapsed(out)
    assert out.read_text().splitlines() == perf.collapsed_lines()


# -- allocation tracking ----------------------------------------------


def test_alloc_tracker_phases_and_growth():
    perf, _ = _profiled_run(alloc=True)
    alloc = perf.alloc
    assert alloc is not None
    phases = [r[0] for r in alloc.phase_rows()]
    assert "transfer" in phases
    # the run allocates *something*; growth sites are attributed
    assert alloc.growth_rows()
    tables = dict((t[0], t[2]) for t in perf.summary_tables())
    assert "heap by phase" in tables
    assert "top allocation growth" in tables


def test_summary_tables_without_alloc():
    perf, _ = _profiled_run(sample_every=0)
    tables = perf.summary_tables()
    assert len(tables) == 1
    title, headers, rows = tables[0]
    assert title.startswith("event-class tax table")
    assert "coverage" in title
    assert headers[0] == "class"
    assert rows
