"""The profiler's disabled-path guarantees.

Two claims, both stronger than "probably fine":

1. **Zero perturbation when enabled** -- a run under the engine
   profiler (per-site attribution) is byte-identical to a bare run:
   same packet trace, same counters, same duration.
   Measurement never feeds back.
2. **Zero cost when disabled** -- a bare run (no ``obs``, no
   ``tracer``) executes *no* code from the ``repro.obs`` / ``repro.trace``
   layers at all, proven with a tracemalloc diff: not a single byte is
   allocated from those files during the run.
"""

import tracemalloc

from repro.harness.runner import run_transfer
from repro.net.topology import GroupSpec
from repro.obs.observer import Observability
from repro.trace.tracer import PacketTracer
from repro.workloads.scenarios import build_chaos, build_wan

LOSSY = GroupSpec("L", delay_us=20_000, loss_rate=0.02)


def _run(perf_on: bool, build):
    sc = build()
    tracer = PacketTracer()
    obs = Observability(profile=True) if perf_on else None
    res = run_transfer(sc, nbytes=250_000, sndbuf=128 * 1024,
                       max_sim_s=300, obs=obs, tracer=tracer)
    return sc, tracer, res


def _assert_identical(bare, observed):
    _, tr_a, res_a = bare
    _, tr_b, res_b = observed
    assert list(tr_a.events) == list(tr_b.events)
    assert res_a.sender_stats.as_dict() == res_b.sender_stats.as_dict()
    assert res_a.receiver_stats.as_dict() == res_b.receiver_stats.as_dict()
    assert res_a.ok == res_b.ok
    assert res_a.duration_us == res_b.duration_us
    assert res_a.drop_summary == res_b.drop_summary
    # the observed run schedules extra (scrape) events, never fewer
    assert res_b.sim_events >= res_a.sim_events


def test_perf_zero_perturbation_lossy_wan():
    build = lambda: build_wan([LOSSY] * 3, 10e6, seed=21)
    bare = _run(False, build)
    profiled = _run(True, build)
    _assert_identical(bare, profiled)
    # non-vacuous: the profiler really measured the run
    profiler = profiled[2].obs.profiler
    assert profiler.events == profiled[2].sim_events


def test_perf_zero_perturbation_chaos():
    """Holds under fault injection too (crash-free plan so every
    endpoint survives to be compared)."""
    build = lambda: build_chaos(3, 10e6, seed=4, horizon_us=1_000_000,
                                allow_crash=False)
    bare = _run(False, build)
    profiled = _run(True, build)
    _assert_identical(bare, profiled)
    assert bare[2].fault_events == profiled[2].fault_events
    assert profiled[2].obs.profiler.events == profiled[2].sim_events


def _obs_layer_bytes(before, after):
    """Bytes newly allocated from repro.obs / repro.trace source files
    between two tracemalloc snapshots."""
    layer = (tracemalloc.Filter(True, "*/repro/obs/*"),
             tracemalloc.Filter(True, "*/repro/trace/*"))
    diff = after.filter_traces(layer).compare_to(
        before.filter_traces(layer), "filename")
    return sum(stat.size_diff for stat in diff if stat.size_diff > 0)


def test_disabled_path_allocates_nothing_in_obs_layers():
    """A bare run never touches the observability/trace layers: the
    tracemalloc diff across the run shows zero bytes allocated from
    their files.  This is the ROADMAP "allocation-free when disabled"
    guarantee, stated as a hard invariant rather than a benchmark."""
    build = lambda: build_wan([LOSSY] * 2, 10e6, seed=21)

    def bare_run():
        sc = build()
        res = run_transfer(sc, nbytes=100_000, sndbuf=128 * 1024,
                           max_sim_s=300)
        assert res.ok
        return res

    bare_run()            # warm-up: imports, code objects, caches
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        bare_run()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert _obs_layer_bytes(before, after) == 0


def test_disabled_path_allocates_nothing_under_faults():
    """Same invariant with a fault plan active: the injector is part of
    the harness, not the obs layer, so a chaos run with observation off
    still allocates zero bytes from repro.obs / repro.trace.  (The
    invariant checker is off too -- it rides an internal tracer.)"""
    build = lambda: build_chaos(2, 10e6, seed=4, horizon_us=1_000_000,
                                allow_crash=False)

    def bare_run():
        sc = build()
        run_transfer(sc, nbytes=100_000, sndbuf=128 * 1024, max_sim_s=300)

    bare_run()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        bare_run()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert _obs_layer_bytes(before, after) == 0
