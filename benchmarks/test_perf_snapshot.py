"""Performance snapshot: one fixed 100 Mbps scenario, measured.

Runs a pinned LAN transfer under the full observability stack and
writes ``BENCH_PR2.json`` at the repo root with the engine's events/sec,
wall time, peak RSS and delivered-bytes/sec, so perf regressions across
PRs show up as a diff of that file.  The asserted wall-clock floor is
deliberately loose (an order of magnitude under observed numbers) -- it
catches catastrophic slowdowns, not noise; engine work is held by an
exact events-per-packet ceiling instead of an events/s floor.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from repro.harness.runner import run_transfer
from repro.obs.observer import Observability
from repro.stats.bench import write_bench_snapshot
from repro.workloads.scenarios import build_lan

BENCH_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "BENCH_PR2.json")

# pinned scenario: 2 receivers on 100 Mbps, 2 MB memory-to-memory,
# 512K buffers -- comfortably past the stop-and-wait regime
SEED = 7
N_RECEIVERS = 2
BANDWIDTH = 100e6
NBYTES = 2_000_000
SNDBUF = 512 * 1024


def _peak_rss_kb() -> int:
    """ru_maxrss is KiB on Linux, bytes on macOS."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss // 1024 if sys.platform == "darwin" else rss


def test_perf_snapshot():
    sc = build_lan(N_RECEIVERS, BANDWIDTH, seed=SEED)
    obs = Observability(profile=True)
    t0 = time.perf_counter()
    res = run_transfer(sc, nbytes=NBYTES, sndbuf=SNDBUF, obs=obs)
    wall_s = time.perf_counter() - t0
    assert res.ok

    engine_eps = res.sim_events / wall_s
    delivered = NBYTES * N_RECEIVERS
    snapshot = {
        "scenario": {
            "kind": "lan", "receivers": N_RECEIVERS, "seed": SEED,
            "bandwidth_bps": BANDWIDTH, "nbytes": NBYTES,
            "sndbuf": SNDBUF,
        },
        "sim_events": res.sim_events,
        "wall_s": round(wall_s, 3),
        "events_per_s_in_callbacks":
            round(obs.profiler.events_per_sec()),
        "delivered_bytes_per_wall_s": round(delivered / wall_s),
        "sim_throughput_mbps": round(res.throughput_mbps, 2),
        "sim_duration_s": round(res.duration_us / 1e6, 3),
        "peak_rss_kb": _peak_rss_kb(),
    }
    doc = write_bench_snapshot(BENCH_PATH, "engine-snapshot", snapshot,
                               events_per_s=engine_eps)
    print()
    print(json.dumps(doc, indent=2, sort_keys=True))

    # engine cost is bounded by a count, not a rate: events/s falls
    # when an engine change removes events.  The ceiling is the one
    # tests/harness/test_pinned_stats.py holds for this scenario.
    assert res.wall_events_per_packet <= 7.6, snapshot
    # loose floor: an order of magnitude below typical CI numbers
    assert delivered / wall_s > 500_000, snapshot
    assert snapshot["peak_rss_kb"] < 2_000_000, snapshot
    # the observed run stays faithful to the protocol result
    assert res.throughput_mbps > 10, snapshot
