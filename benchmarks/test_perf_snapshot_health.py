"""Performance snapshot for the protocol-health observatory (PR 8).

Runs the pinned 100 Mbps LAN transfer three ways -- bare, observed
with the health ledger OFF, and observed with it ON -- and writes
``BENCH_PR8.json`` at the repo root with all three events/sec figures
and the health payload.

The acceptance bar is the *marginal* cost of the health layer: the
health-on run vs the otherwise-identical health-off run (same scrape
loop, same span collector).  The ledger hooks are None-guarded
attribute reads on the hot path, so turning them on must be nearly
free.  The bare figure is recorded for context (the observability
base tax is PR 2/PR 7 territory, gated elsewhere).

Gates:

* health-on keeps >= 0.90 of health-off events/s;
* the pinned lossless LAN reports a clean ledger (no NAKs, no
  retransmissions, nothing unresolved) without being vacuous
  (feedback still reached the sender).

Byte-identity of health-on vs unobserved runs is proven separately by
``tests/obs/test_zero_perturbation.py``.
"""

from __future__ import annotations

import json
import os
import time

from repro.harness.runner import run_transfer
from repro.obs.observer import Observability
from repro.stats.bench import measure_events_per_s, write_bench_snapshot
from repro.workloads.scenarios import build_lan

BENCH_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "BENCH_PR8.json")

# pinned scenario, identical to test_perf_snapshot / PINNED_SCENARIO
SEED = 7
N_RECEIVERS = 2
BANDWIDTH = 100e6
NBYTES = 2_000_000
SNDBUF = 512 * 1024


def _observed_run(health: bool):
    """Best-of-2 observed pinned run; returns (events/s, wall, result,
    obs) of the faster repetition (wall noise only ever slows one)."""
    best = None
    for _ in range(2):
        sc = build_lan(N_RECEIVERS, BANDWIDTH, seed=SEED)
        obs = Observability(profile=False, health=health)
        t0 = time.perf_counter()
        res = run_transfer(sc, nbytes=NBYTES, sndbuf=SNDBUF, obs=obs)
        wall_s = time.perf_counter() - t0
        assert res.ok
        eps = res.sim_events / wall_s
        if best is None or eps > best[0]:
            best = (eps, wall_s, res, obs)
    return best


def test_perf_snapshot_health():
    bare = measure_events_per_s(repeats=2)
    off_eps, _, off_res, _ = _observed_run(health=False)
    on_eps, wall_s, res, obs = _observed_run(health=True)

    # identical simulated worlds before comparing their wall clocks
    assert res.sim_events == off_res.sim_events
    assert res.duration_us == off_res.duration_us

    ratio = on_eps / off_eps
    payload = obs.health.payload()
    snapshot = {
        "scenario": {
            "kind": "lan", "receivers": N_RECEIVERS, "seed": SEED,
            "bandwidth_bps": BANDWIDTH, "nbytes": NBYTES,
            "sndbuf": SNDBUF,
        },
        "sim_events": res.sim_events,
        "wall_s": round(wall_s, 3),
        "bare": bare,
        "observed_health_off_events_per_s": round(off_eps, 1),
        "health_on_over_health_off": round(ratio, 3),
        "health": payload,
    }
    doc = write_bench_snapshot(BENCH_PATH, "health-observatory",
                               snapshot, events_per_s=on_eps)
    print()
    print(json.dumps(doc, indent=2, sort_keys=True))

    assert ratio >= 0.90, snapshot
    # the pinned LAN is lossless: the ledger must be clean
    assert payload["suppression"]["naks_sent"] == 0
    assert payload["repair"]["retrans_pkts"] == 0
    assert payload["lag"]["unresolved"] == 0
    # ...but not vacuous: feedback still flowed to the sender
    assert payload["implosion"]["feedback_at_sender"] > 0
    assert payload["group_size"] == N_RECEIVERS
