"""Performance snapshot for the hot-path observatory (PR 7).

Runs the pinned 100 Mbps LAN transfer twice -- bare, then under the
full performance observatory (event-class attribution + deterministic
stack sampling) -- and writes ``BENCH_PR7.json`` at the repo root with
both events/sec figures, the tax-table payload and the overhead ratio.

The snapshot's top-level ``events_per_s`` is the *profiled* run's: it
is what the CI gate compares against a fresh ``hrmc perf profile lan
--bench-out`` snapshot, so both sides of the comparison carry the same
instrument overhead.

Gates:

* the taxonomy places >= 95 % of executed callbacks (the tentpole's
  coverage bar);
* sampling really happened (collapsed stacks exist, rooted at
  ``engine;``);
* the observatory costs less than 4x bare (loose: the sampler traces
  every 16th callback with sys.setprofile, which is expensive by
  design but bounded).
"""

from __future__ import annotations

import json
import os
import time

from repro.harness.runner import run_transfer
from repro.obs.observer import Observability
from repro.obs.perf import PerfObservatory
from repro.stats.bench import measure_events_per_s, write_bench_snapshot
from repro.workloads.scenarios import build_lan

BENCH_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "BENCH_PR7.json")

# pinned scenario, identical to test_perf_snapshot / PINNED_SCENARIO
SEED = 7
N_RECEIVERS = 2
BANDWIDTH = 100e6
NBYTES = 2_000_000
SNDBUF = 512 * 1024
SAMPLE_EVERY = 16


def test_perf_snapshot_observatory():
    bare = measure_events_per_s(repeats=2)

    sc = build_lan(N_RECEIVERS, BANDWIDTH, seed=SEED)
    perf = PerfObservatory(sample_every=SAMPLE_EVERY)
    obs = Observability(perf=perf)
    t0 = time.perf_counter()
    res = run_transfer(sc, nbytes=NBYTES, sndbuf=SNDBUF, obs=obs)
    wall_s = time.perf_counter() - t0
    assert res.ok

    profiled_eps = res.sim_events / wall_s
    ratio = bare["events_per_s"] / profiled_eps
    snapshot = {
        "scenario": {
            "kind": "lan", "receivers": N_RECEIVERS, "seed": SEED,
            "bandwidth_bps": BANDWIDTH, "nbytes": NBYTES,
            "sndbuf": SNDBUF, "sample_every": SAMPLE_EVERY,
        },
        "sim_events": res.sim_events,
        "wall_s": round(wall_s, 3),
        "bare": bare,
        "overhead_bare_over_profiled": round(ratio, 3),
        "perf": perf.bench_payload(),
    }
    doc = write_bench_snapshot(BENCH_PATH, "perf-observatory", snapshot,
                               events_per_s=profiled_eps)
    print()
    print(json.dumps(doc, indent=2, sort_keys=True))

    assert perf.profiler.events == res.sim_events
    assert perf.coverage() >= 0.95, snapshot["perf"]
    lines = perf.collapsed_lines()
    assert lines and all(line.startswith("engine;") for line in lines)
    # the instruments cost real time, but boundedly so
    assert ratio < 4.0, snapshot
