"""Protocol-health observatory: does the ledger measure what it claims?

The zero-perturbation battery proves health-on runs don't change the
protocol; this file proves the numbers mean something.  The core
evidence is a *mutation test*: disabling the NAK suppression timer
(``nak_suppress_rtts=0``) must visibly shift the ledger from
suppressed-by-timer to sent and inflate the feedback-implosion index
-- if it doesn't, the ledger isn't actually distinguishing suppressed
from sent feedback.  A second mutation (``local_recovery=True``)
exercises the peer-suppression and repair-cache columns.
"""

from dataclasses import replace

import pytest

from repro.core.config import HRMCConfig
from repro.harness.runner import run_transfer
from repro.net.topology import GroupSpec
from repro.obs.observer import Observability
from repro.obs.health import HealthMonitor
from repro.workloads.scenarios import build_wan

LOSSY = GroupSpec("L", delay_us=20_000, loss_rate=0.02)


def _run_health(cfg=None, receivers=3):
    sc = build_wan([LOSSY] * receivers, 10e6, seed=21)
    obs = Observability(profile=False, health=True)
    res = run_transfer(sc, nbytes=250_000, sndbuf=128 * 1024,
                       max_sim_s=300, obs=obs, cfg=cfg)
    assert res.ok
    return res, obs.health.payload()


@pytest.fixture(scope="module")
def baseline():
    return _run_health()


@pytest.fixture(scope="module")
def timer_disabled():
    return _run_health(replace(HRMCConfig(), nak_suppress_rtts=0.0))


@pytest.fixture(scope="module")
def local_recovery():
    # five at one site: a packet lost at one receiver's own interface
    # (a tenth of the loss; the rest hits the whole site, where nobody
    # can repair it) is held by four peers, who all hear the multicast
    # NAK -- with three receivers the two holders' repairs cross on the
    # wire and neither is ever suppressed
    return _run_health(replace(HRMCConfig(), local_recovery=True),
                       receivers=5)


# -- the mutation test: timer off => ledger shifts, implosion rises ----

def test_baseline_ledger_sees_timer_suppression(baseline):
    supp = baseline[1]["suppression"]
    assert supp["naks_sent"] > 0
    assert supp["suppressed_timer"] > supp["naks_sent"], \
        "seed 21 holds most pending NAKs under the suppression timer"
    assert supp["effectiveness"] > 0.5


def test_disabling_timer_shifts_suppressed_to_sent(baseline,
                                                   timer_disabled):
    base, mut = baseline[1]["suppression"], timer_disabled[1]["suppression"]
    # every tick now sends everything pending: nothing timer-suppressed
    assert mut["suppressed_timer"] == 0
    assert mut["effectiveness"] == 0.0
    # ...and the feedback that suppression was absorbing hits the wire
    assert mut["naks_sent"] > base["naks_sent"] * 1.5


def test_disabling_timer_inflates_implosion_index(baseline,
                                                  timer_disabled):
    base, mut = baseline[1]["implosion"], timer_disabled[1]["implosion"]
    assert mut["naks_at_sender"] > base["naks_at_sender"] * 1.5
    assert mut["index"] > base["index"] * 1.5, \
        "without suppression the sender drowns in per-loss feedback"


def test_mutated_run_still_counted_consistently(timer_disabled):
    res, payload = timer_disabled
    assert payload["implosion"]["naks_at_sender"] == \
        res.sender_stats.naks_rcvd
    assert payload["suppression"]["naks_sent"] == \
        res.receiver_stats.naks_sent


# -- peer-vs-timer distinction: local recovery lights the peer columns -

def test_local_recovery_exercises_peer_suppression(local_recovery):
    _, payload = local_recovery
    supp, cache = payload["suppression"], payload["repair"]["cache"]
    assert supp["suppressed_peer"] > 0, \
        "a peer repair overlapping a pending NAK counts as peer-suppressed"
    assert cache["inserts"] > 0, "receivers cache data for local repair"
    assert cache["hits"] > 0, "some peer NAKs were served from the cache"
    assert cache["peer_suppressed"] > 0, \
        "hearing another receiver's repair suppresses own emission"
    # timer suppression still dominates; the two columns are distinct
    assert supp["suppressed_timer"] > supp["suppressed_peer"]


# -- payload shape and unit-level accounting ---------------------------

def test_payload_is_json_safe_and_complete(baseline):
    import json
    _, payload = baseline
    rehydrated = json.loads(json.dumps(payload))
    assert rehydrated == payload
    for section in ("suppression", "implosion", "repair", "lag",
                    "update"):
        assert section in payload
    assert payload["group_size"] == 3
    lag = payload["lag"]
    assert lag["filled"] > 0
    assert lag["worst_host"].startswith("10.")
    # percentiles are bucket upper bounds, so p90 may exceed the true
    # max; only the ordering within each family is guaranteed
    assert lag["p90_us"] >= lag["p50_us"] > 0
    assert lag["max_us"] > 0
    hosts = [row["host"] for row in lag["per_host"]]
    assert hosts == sorted(hosts)


def test_effectiveness_ratio_definition():
    assert HealthMonitor.suppression_effectiveness(0, 0, 0) == 0.0
    assert HealthMonitor.suppression_effectiveness(1, 0, 0) == 0.0
    assert HealthMonitor.suppression_effectiveness(0, 3, 1) == 1.0
    assert HealthMonitor.suppression_effectiveness(1, 2, 1) == 0.75


def test_standalone_monitor_needs_no_registry():
    mon = HealthMonitor()
    mon.c["nak_sent"].inc(3)
    mon.observe_lag("10.1.0.2", 4_000)
    mon.finalize(10_000)
    payload = mon.payload()
    assert payload["suppression"]["naks_sent"] == 3
    assert payload["lag"]["per_host"][0]["host"] == "10.1.0.2"
    assert mon.summary_tables()


def test_registry_backed_counters_ride_metric_exports(baseline):
    """With a registry, health counters appear as health.* metrics."""
    sc = build_wan([LOSSY] * 3, 10e6, seed=21)
    obs = Observability(profile=False, health=True)
    run_transfer(sc, nbytes=250_000, sndbuf=128 * 1024, max_sim_s=300,
                 obs=obs)
    names = set(obs.registry.counters)
    assert "health.nak_sent" in names
    assert obs.registry.counters["health.nak_sent"].value == \
        baseline[1]["suppression"]["naks_sent"]
