"""Zero-perturbation regression: observing a run must not change it.

Two identical seeded lossy runs -- one bare, one under the engine
profiler, the one observer -- must produce byte-identical packet traces,
final protocol counters and engine event counts: the profiler schedules
nothing.
"""

import pytest

from repro.harness.runner import run_transfer
from repro.net.topology import GroupSpec
from repro.obs.health import payload
from repro.obs.profiler import Observability
from repro.trace.tracer import PacketTracer
from repro.workloads.scenarios import build_chaos, build_lan, build_wan

LOSSY = GroupSpec("L", delay_us=20_000, loss_rate=0.02)


def _run(observe: bool, build):
    sc = build()
    tracer = PacketTracer()   # run_transfer attaches it to every host
    obs = Observability(profile=True) if observe else None
    res = run_transfer(sc, nbytes=250_000, sndbuf=128 * 1024,
                       max_sim_s=300, obs=obs, tracer=tracer)
    return sc, tracer, res


def _assert_identical(bare, observed):
    sc_a, tr_a, res_a = bare
    sc_b, tr_b, res_b = observed
    # byte-identical packet history, event for event
    assert list(tr_a.events) == list(tr_b.events)
    # identical protocol counters on every endpoint
    assert res_a.sender_stats.as_dict() == res_b.sender_stats.as_dict()
    assert res_a.receiver_stats.as_dict() == res_b.receiver_stats.as_dict()
    assert res_a.ok == res_b.ok
    assert res_a.duration_us == res_b.duration_us
    assert res_a.drop_summary == res_b.drop_summary
    # and the observed run executes exactly the bare run's events
    assert res_b.sim_events == res_a.sim_events


def test_zero_perturbation_lossy_wan():
    build = lambda: build_wan([LOSSY] * 3, 10e6, seed=21)
    _assert_identical(_run(False, build), _run(True, build))


def test_zero_perturbation_chaos():
    """Holds under fault injection too (crash-free plan so every
    endpoint survives to be compared)."""
    build = lambda: build_chaos(3, 10e6, seed=4, horizon_us=1_000_000,
                                allow_crash=False)
    bare = _run(False, build)
    observed = _run(True, build)
    _assert_identical(bare, observed)
    assert bare[2].fault_events == observed[2].fault_events


def test_zero_perturbation_with_health_lan():
    """Protocol health is a read of the bare run's own books, so there
    is nothing attached to perturb.  A lossless LAN leaves a clean
    ledger over the whole group..."""
    doc = payload(_run(False, lambda: build_lan(3, 10e6, seed=7))[2])
    assert doc["group_size"] == 3
    assert doc["suppression"]["naks_sent"] == 0
    assert doc["repair"]["retrans_pkts"] == 0
    assert doc["lag"]["unresolved"] == 0
    # ...but not a vacuous one: feedback still reaches the sender
    assert doc["implosion"]["feedback_at_sender"] > 0


def test_zero_perturbation_with_health_lossy_wan():
    """...and on the recovery path, where every ledger cell moves."""
    res = _run(False, lambda: build_wan([LOSSY] * 3, 10e6, seed=21))[2]
    doc = payload(res)
    # seed 21 is known lossy: the ledger saw real recovery traffic
    assert doc["suppression"]["gaps_opened"] > 0
    assert doc["suppression"]["naks_sent"] > 0
    assert doc["implosion"]["loss_events"] > 0
    assert doc["lag"]["filled"] > 0
    # cells read from the run's statistics agree with them exactly
    assert doc["implosion"]["naks_at_sender"] == res.sender_stats.naks_rcvd
    assert doc["suppression"]["naks_sent"] == res.receiver_stats.naks_sent


def test_zero_perturbation_with_health_chaos():
    res = _run(False, lambda: build_chaos(3, 10e6, seed=4,
                                          horizon_us=1_000_000,
                                          allow_crash=False))[2]
    assert res.fault_events > 0
    assert payload(res)["group_size"] == 3


def test_observed_run_yields_data():
    """The guarantee is not vacuous: the observed twin actually
    collected a profile, of every event the run executed."""
    sc = build_wan([LOSSY] * 3, 10e6, seed=21)
    obs = Observability(profile=True)
    res = run_transfer(sc, nbytes=250_000, sndbuf=128 * 1024,
                       max_sim_s=300, obs=obs)
    assert res.ok
    assert obs.profiler.events == res.sim_events > 0
