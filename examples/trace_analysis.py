#!/usr/bin/env python3
"""Protocol forensics: dissect a lossy WAN transfer from its own books.

Runs a 2 % -loss wide-area transfer and prints what its recovery cost,
read from the run record alone (nothing is attached to the run): the
protocol-health tables (NAK suppression, implosion and repair
economics, recovery lag per receiver) and the gap-open -> gap-fill
recovery-lag histogram with the slowest receiver.

Run:  python examples/trace_analysis.py
"""

from repro.harness.runner import run_transfer
from repro.obs.health import LAG_BOUNDS_US, Histogram, payload, summary_tables
from repro.stats.report import format_table
from repro.workloads.groups import GROUP_C
from repro.workloads.scenarios import build_wan

NBYTES = 1_000_000


def main() -> None:
    scenario = build_wan([GROUP_C] * 5, 10e6, seed=13)
    res = run_transfer(scenario, nbytes=NBYTES, sndbuf=512 * 1024)

    print(f"transfer: {NBYTES / 1e6:g} MB to 5 WAN receivers "
          f"(2% loss) -> {res.throughput_mbps:.2f} Mbps, "
          f"reliable={res.ok}\n")

    health = payload(res)
    for title, headers, rows in summary_tables(health):
        print(format_table(title, headers, rows))
        print()

    # recovery lag (gap detected -> gap filled), from the receivers'
    # own recovery books
    lag = Histogram("recovery lag (us)", LAG_BOUNDS_US)
    for books in res.books["receivers"]:
        for lag_us in books["lags_us"]:
            lag.observe(lag_us)
    if lag.count:
        print("recovery lag, gap detected -> gap filled "
              "(the receivers' recovery books):")
        print(lag.render())
        worst = health["lag"]
        print(f"\nslowest recovery {worst['worst_max_us'] / 1000:.1f} ms "
              f"at {worst['worst_host']}")


if __name__ == "__main__":
    main()
