#!/usr/bin/env python3
"""Protocol forensics: observe a lossy WAN transfer and dissect it.

Attaches the observability layer to a 2 % -loss wide-area transfer and
prints what happened on the wire: the packet mix and retransmission
ratio from the sender's and receivers' own counters, the gap-open ->
gap-fill recovery-lag histogram from the receivers' own recovery books
with the slowest receiver, and the observer's run summary.

Run:  python examples/trace_analysis.py
"""

from repro.harness.runner import run_transfer
from repro.obs.health import LAG_BOUNDS_US, payload
from repro.obs.metrics import Histogram
from repro.obs.observer import Observability
from repro.stats.report import format_table
from repro.workloads.groups import GROUP_C
from repro.workloads.scenarios import build_wan

NBYTES = 1_000_000


def main() -> None:
    scenario = build_wan([GROUP_C] * 5, 10e6, seed=13)
    obs = Observability()
    res = run_transfer(scenario, nbytes=NBYTES, sndbuf=512 * 1024, obs=obs)

    print(f"transfer: {NBYTES / 1e6:g} MB to 5 WAN receivers "
          f"(2% loss) -> {res.throughput_mbps:.2f} Mbps, "
          f"reliable={res.ok}\n")

    snd, rcv = res.sender_stats, res.receiver_stats
    rows = [
        ("DATA (first transmission)", "sender", snd.data_pkts_sent,
         snd.data_bytes_sent),
        ("DATA (retransmission)", "sender", snd.retrans_pkts,
         snd.retrans_bytes),
        ("NAK_ERR", "sender", snd.nak_errs_sent, 0),
        ("PROBE", "sender", snd.probes_sent, 0),
        ("KEEPALIVE", "sender", snd.keepalives_sent, 0),
        ("JOIN", "receivers", rcv.joins_sent, 0),
        ("NAK", "receivers", rcv.naks_sent, 0),
        ("CONTROL (rate request)", "receivers",
         rcv.rate_requests_sent + rcv.urgent_requests_sent, 0),
        ("UPDATE", "receivers", rcv.updates_sent, 0),
        ("LEAVE", "receivers", rcv.leaves_sent, 0),
    ]
    print(format_table("Packets on the wire (as the endpoints count them)",
                       ["type", "sent by", "count", "payload bytes"], rows))
    data = snd.data_pkts_sent + snd.retrans_pkts
    print(f"\nretransmissions: {snd.retrans_pkts} packets "
          f"({snd.retrans_pkts / data if data else 0.0:.1%} of DATA)")

    # recovery lag (gap detected -> gap filled), from the receivers'
    # own recovery books
    lag = Histogram("recovery lag (us)", LAG_BOUNDS_US)
    for books in res.books["receivers"]:
        for lag_us in books["lags_us"]:
            lag.observe(lag_us)
    if lag.count:
        print("\nrecovery lag, gap detected -> gap filled "
              "(the receivers' recovery books):")
        print(lag.render())
        worst = payload(res)["lag"]
        print(f"\nslowest recovery {worst['worst_max_us'] / 1000:.1f} ms "
              f"at {worst['worst_host']}")

    print()
    print(obs.summary())


if __name__ == "__main__":
    main()
