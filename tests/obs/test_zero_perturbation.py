"""Zero-perturbation regression: observing a run must not change it.

Protocol health is a read of the bare run's own books, so there is
nothing attached to perturb; the profiled twin of a bare run, which
must be byte-identical to it, is held by `test_perf_disabled.py`.  The
observed run here shows that twin is not vacuous.
"""

from repro.harness.runner import run_transfer
from repro.net.topology import GroupSpec
from repro.obs.health import payload
from repro.obs.profiler import Observability
from repro.workloads.scenarios import build_chaos, build_lan, build_wan

LOSSY = GroupSpec("L", delay_us=20_000, loss_rate=0.02)


def _run(build):
    """A bare run: no observer and no tracer."""
    return run_transfer(build(), nbytes=250_000, sndbuf=128 * 1024,
                        max_sim_s=300)


def test_zero_perturbation_with_health_lan():
    """Protocol health is a read of the bare run's own books, so there
    is nothing attached to perturb.  A lossless LAN leaves a clean
    ledger over the whole group..."""
    doc = payload(_run(lambda: build_lan(3, 10e6, seed=7)))
    assert doc["group_size"] == 3
    assert doc["suppression"]["naks_sent"] == 0
    assert doc["repair"]["retrans_pkts"] == 0
    assert doc["lag"]["unresolved"] == 0
    # ...but not a vacuous one: feedback still reaches the sender
    assert doc["implosion"]["feedback_at_sender"] > 0


def test_zero_perturbation_with_health_lossy_wan():
    """...and on the recovery path, where every ledger cell moves."""
    res = _run(lambda: build_wan([LOSSY] * 3, 10e6, seed=21))
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
    res = _run(lambda: build_chaos(3, 10e6, seed=4, horizon_us=1_000_000,
                                   allow_crash=False))
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
