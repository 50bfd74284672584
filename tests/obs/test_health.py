"""Protocol health: does the ledger measure what it claims?

Health is a read of a finished bare run (the roles keep the books), so
there is nothing to perturb; this file proves the numbers mean
something.  The core evidence is a *mutation test*: disabling the NAK
suppression timer (``nak_suppress_rtts=0``) must visibly shift the
ledger from suppressed-by-timer to sent and inflate the
feedback-implosion index -- if it doesn't, the ledger isn't actually
distinguishing suppressed from sent feedback.  A second mutation
(``local_recovery=True``) exercises the peer-suppression and
repair-cache columns, and an RMC run whose sender releases data after
one RTT exercises the abandoned-gap column.

``PAYLOAD_SHA`` pins each payload, byte for byte, to what the
health probe that the roles' books replaced reported for the same run,
except the lag ``p50_us`` / ``p90_us`` of ``wan-gate``, ``chaos`` and
``local-recovery``, re-pinned when percentiles were clamped to the
largest lag.
Print them with:

    PYTHONPATH=src:. python -c "from tests.obs.test_health import \\
        PINNED_RUNS, payload_sha; \\
        [print(n, payload_sha(n)) for n in PINNED_RUNS]"
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core.config import HRMCConfig
from repro.fleet.worker import run_spec
from repro.harness.runner import run_transfer
from repro.net.topology import GroupSpec
from repro.obs.health import (health_cell, payload, summary_tables,
                              suppression_effectiveness)
from repro.workloads.groups import GROUP_C, expand_test_case
from repro.workloads.scenarios import build_chaos, build_lan, build_wan
from repro.workloads.spec import CHAOS_TUNING, RunSpec

LOSSY = GroupSpec("L", delay_us=20_000, loss_rate=0.02)


def _run_health(cfg=None, receivers=3):
    sc = build_wan([LOSSY] * receivers, 10e6, seed=21)
    res = run_transfer(sc, nbytes=250_000, sndbuf=128 * 1024,
                       max_sim_s=300, cfg=cfg)
    assert res.ok
    return res, payload(res)


#: name -> bare run whose payload is pinned: the CI gate runs (lan, wan),
#: the chaos seed-4 LAN under a plan drawn with no crash, the
#: local-recovery fixture below, and RMC abandoning gaps
PINNED_RUNS = {
    "lan-gate": lambda: run_transfer(
        build_lan(2, 100e6, seed=7), nbytes=200_000, max_sim_s=300),
    "wan-gate": lambda: run_transfer(
        build_wan(expand_test_case(2, 5), 10e6, seed=1), nbytes=500_000,
        max_sim_s=300),
    "chaos": lambda: run_transfer(
        build_chaos(3, 10e6, seed=4, horizon_us=1_000_000,
                    allow_crash=False), nbytes=300_000, max_sim_s=300,
        cfg=HRMCConfig(**CHAOS_TUNING), invariants=True, sndbuf=128 * 1024),
    "local-recovery": lambda: run_transfer(
        build_wan([LOSSY] * 5, 10e6, seed=21), nbytes=250_000,
        sndbuf=128 * 1024, max_sim_s=300,
        cfg=replace(HRMCConfig(), local_recovery=True)),
    "rmc-abandon": lambda: run_transfer(
        build_wan([GROUP_C] * 3, 10e6, seed=9), nbytes=300_000,
        sndbuf=64 * 1024, protocol="rmc",
        cfg=replace(HRMCConfig(), minbuf_rtts=1)),
}

PAYLOAD_SHA = {
    "lan-gate":
        "167bc17bce789ec47ebd78fd87cd1d95a66155b9a57bf400b0439208ac762f62",
    "wan-gate":
        "d8c988968eed37d150502df5aed2e5dde2262276502459f600132525c3a5e189",
    "chaos":
        "30dc04b032bd566dc39ec9f64037ab7e614e141284a8c8636f49b9fe93014e3a",
    "local-recovery":
        "e1686d4c844bf732fed3ebba49b380cd073d71fe7118f3c71809b10b570a2da5",
    "rmc-abandon":
        "b5fd739e021d4751a12951b2dc106a45a444952ee3b47c66c6981be108315248",
}


def payload_sha(name) -> str:
    doc = payload(PINNED_RUNS[name]())
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


@pytest.mark.parametrize("name", PINNED_RUNS)
def test_payload_is_pinned(name):
    assert payload_sha(name) == PAYLOAD_SHA[name]


def test_rmc_release_abandons_gaps():
    """RMC releasing after one RTT answers late NAKs with NAK_ERR: the
    gaps it wipes are abandoned, not filled, and none stay open."""
    res = PINNED_RUNS["rmc-abandon"]()
    lag = payload(res)["lag"]
    assert not res.ok and res.lost_bytes > 0
    assert lag["abandoned"] == 6
    assert lag["filled"] == 0 and lag["unresolved"] == 0


# -- every receiver socket and every protocol reads from the record ---

def test_a_rejoined_receiver_is_in_the_ledger():
    """Chaos seed 10 crashes receiver 2, which rejoins on a fresh
    socket and recovers mid-stream: the sender counts that socket's
    NAKs, and so does the ledger, so the two tables of one run agree."""
    res = run_spec(RunSpec.chaos(3, 10e6, seed=10, nbytes=250_000,
                                 horizon_us=1_000_000))
    doc = payload(res)
    assert res.restarted_receivers == [2]
    assert doc["suppression"]["naks_sent"] == 10
    assert doc["implosion"]["naks_at_sender"] == 10
    assert doc["repair"]["useful"] == 79
    assert doc["lag"]["filled"] == 2
    # four receiver sockets, and the three first ones repaired nothing
    *first, rejoined = res.books["receivers"]
    assert len(first) == 3 and rejoined["host"] == first[2]["host"]
    assert (rejoined["naks_sent"], rejoined["repairs_useful"],
            rejoined["gaps_filled"]) == (10, 79, 2)


def test_a_baseline_payload_has_only_its_senders_counters():
    """The ACK baseline keeps no H-RMC books: its payload carries the
    retransmissions and feedback its sender counted, and no section
    that would read 0 for want of a NAK list."""
    res = run_spec(RunSpec.wan(test=2, receivers=3, bandwidth_bps=10e6,
                               seed=21, nbytes=200_000, protocol="ack"))
    doc = payload(res)
    assert res.ok
    assert doc == {"group_size": 3,
                   "implosion": {"naks_at_sender": 0,
                                 "feedback_at_sender": 422},
                   "repair": {"retrans_pkts": 4, "retrans_bytes": 5840}}
    assert res.books == {}
    [(title, _, rows)] = summary_tables(doc)
    assert [row[0] for row in rows] == [
        "feedback pkts at sender", "retransmissions", "retransmitted bytes"]


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
    res, doc = timer_disabled
    assert doc["implosion"]["naks_at_sender"] == res.sender_stats.naks_rcvd
    assert doc["suppression"]["naks_sent"] == res.receiver_stats.naks_sent


# -- peer-vs-timer distinction: local recovery lights the peer columns -

def test_local_recovery_exercises_peer_suppression(local_recovery):
    _, doc = local_recovery
    supp, cache = doc["suppression"], doc["repair"]["cache"]
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
    _, doc = baseline
    rehydrated = json.loads(json.dumps(doc))
    assert rehydrated == doc
    for section in ("suppression", "implosion", "repair", "lag",
                    "update"):
        assert section in doc
    assert doc["group_size"] == 3
    lag = doc["lag"]
    assert lag["filled"] > 0
    assert lag["worst_host"].startswith("10.")
    # percentiles are bucket upper bounds clamped to the largest lag
    assert 0 < lag["p50_us"] <= lag["p90_us"] <= lag["max_us"]
    assert lag["max_us"] == max(row["max_us"] for row in lag["per_host"])
    hosts = [row["host"] for row in lag["per_host"]]
    assert hosts == sorted(hosts)


def test_effectiveness_ratio_definition():
    assert suppression_effectiveness(0, 0, 0) == 0.0
    assert suppression_effectiveness(1, 0, 0) == 0.0
    assert suppression_effectiveness(0, 3, 1) == 1.0
    assert suppression_effectiveness(1, 2, 1) == 0.75


# -- the flat cell ------------------------------------------------------

CELL_PAYLOAD = {
    "group_size": 4,
    "suppression": {"effectiveness": 0.7, "naks_sent": 10,
                    "suppressed_timer": 20, "suppressed_peer": 3},
    "implosion": {"feedback_at_sender": 40, "naks_at_sender": 10,
                  "loss_events": 5, "index": 2.0},
    "repair": {"retrans_pkts": 8, "retrans_bytes": 11680,
               "redundant_ratio": 0.25},
    "lag": {"mean_us": 30_000, "worst_max_us": 90_000, "unresolved": 0},
}


def test_health_cell_flattens_payload():
    cell = health_cell(CELL_PAYLOAD, label="n=4", throughput_bps=2_000_000)
    assert cell["label"] == "n=4"
    assert cell["group_size"] == 4
    assert cell["effectiveness"] == 0.7
    assert cell["suppressed"] == 23
    assert cell["implosion_index"] == 2.0
    assert cell["throughput_mbps"] == 2.0
    assert cell["worst_lag_us"] == 90_000


def test_health_cell_needs_the_books():
    """A cell flattens an H-RMC run's payload: a baseline's, which has
    no suppression section, is refused rather than read as zeros."""
    with pytest.raises(KeyError):
        health_cell({"group_size": 2,
                     "implosion": {"naks_at_sender": 0,
                                   "feedback_at_sender": 9},
                     "repair": {"retrans_pkts": 0, "retrans_bytes": 0}})
    assert "throughput_mbps" not in health_cell(CELL_PAYLOAD)
