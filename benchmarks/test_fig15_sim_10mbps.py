"""Figure 15: simulated 10 Mbps study -- throughput and rate-reduce
requests for Tests 1-5 with 10 receivers, plus the many-receiver run."""

from statistics import median

from benchmarks.conftest import column, table
from repro.fleet.executor import Fleet
from repro.harness.experiments import MBPS_10, file_sizes
from repro.workloads.spec import RunSpec

#: the report's own seed first.  At quick scale the 1 MB file fits in a
#: 1024K buffer whole and a run's time is wherever its last few losses
#: fell (EXPERIMENTS.md caveat 6), so that row is judged on the median
#: over these seeds rather than on one of them.
SEEDS_1024K = range(11, 16)


def _row_1024k_seed_medians():
    """Tests 1-5 at 1024K as fig15 runs them, median over SEEDS_1024K."""
    nbytes = file_sizes()[0] // 2
    runs = [[RunSpec.wan(test=t, receivers=10, bandwidth_bps=MBPS_10,
                         seed=seed, nbytes=nbytes, sndbuf=1024 * 1024)
             for t in (1, 2, 3, 4, 5)] for seed in SEEDS_1024K]
    done = Fleet().run_specs([spec for row in runs for spec in row])
    return [median(done[row[i].content_hash()].throughput_mbps
                   for row in runs) for i in range(5)]


def test_fig15(regen):
    report = regen("fig15")
    _, tput = table(report, "(a) throughput")
    # use the largest buffer row (seed medians); columns: buffer,
    # Test1..Test5
    t1, t2, t3, t4, t5 = _row_1024k_seed_medians()
    assert t1 > t2 > t3, "Test 1 > Test 2 > Test 3 ordering"
    # Tests 4 and 5 sit near the wide-area level, below the pure-MAN run
    assert t4 < t2 and t5 < t2
    assert t4 < (t2 + t3) / 2 + 0.5
    # the same, row by row on the report's one seed: the ordering at
    # every buffer, and Tests 4/5 within 20 % of Test 3 wherever the
    # file exceeds the buffer
    for row in tput:
        assert row[1] > row[2] > row[3], f"ordering at {row[0]}"
    for row in tput[:-1]:
        assert abs(row[4] - row[3]) <= 0.2 * row[3], f"Test 4 at {row[0]}"
        assert abs(row[5] - row[3]) <= 0.2 * row[3], f"Test 5 at {row[0]}"
    # throughput grows with buffer size in every test
    for col in range(1, 6):
        series = column(tput, col)
        assert series[-1] >= series[0]

    _, rr = table(report, "(b) rate reduce requests")
    # the lossy environments generate rate requests; the LAN-like barely
    lossy_total = sum(sum(r[2:]) for r in rr)
    lan_total = sum(r[1] for r in rr)
    assert lossy_total > lan_total

    _, many = table(report, "(c) throughput")
    many_last = many[-1]
    # modest decrease vs 10 receivers (not a collapse)
    assert many_last[1] > 0.4 * t1
