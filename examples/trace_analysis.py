#!/usr/bin/env python3
"""Protocol forensics: capture a lossy WAN transfer and dissect it.

Attaches a packet tracer (the simulated tcpdump) and the observability
layer to every host, runs a 2 % -loss wide-area transfer, and prints
what actually happened on the wire: the packet mix, retransmission
ratio, repair latency, terminal sparklines of goodput and stream
progress, and the NAK->repair recovery-latency histogram stitched from
the packet-lifecycle spans.

Run:  python examples/trace_analysis.py
"""

from repro.harness.runner import run_transfer
from repro.obs.observer import Observability
from repro.stats.report import format_table
from repro.trace.analyzer import (feedback_latency, packet_summary,
                                  sequence_progress, sparkline,
                                  throughput_timeline)
from repro.trace.tracer import PacketTracer
from repro.workloads.groups import GROUP_C
from repro.workloads.scenarios import build_wan

NBYTES = 1_000_000


def main() -> None:
    scenario = build_wan([GROUP_C] * 5, 10e6, seed=13)
    tracer = PacketTracer()
    obs = Observability()
    res = run_transfer(scenario, nbytes=NBYTES, sndbuf=512 * 1024,
                       max_sim_s=600, tracer=tracer, obs=obs)
    tracer.detach()

    print(f"transfer: {NBYTES / 1e6:g} MB to 5 WAN receivers "
          f"(2% loss) -> {res.throughput_mbps:.2f} Mbps, "
          f"reliable={res.ok}\n")

    meta = ({"truncated": True, "dropped": tracer.dropped,
             "ring": tracer.ring} if tracer.dropped else None)
    summary = packet_summary(tracer.events, meta)
    capture = summary.pop("_capture", None)
    if capture:
        print(f"NOTE: capture truncated -- {capture['dropped']} events "
              f"lost{' off the ring' if capture['ring'] else ''}; "
              "counts below are lower bounds\n")
    retrans = summary.pop("_retransmissions")
    rows = [(name, s["count"], s["bytes"])
            for name, s in sorted(summary.items())]
    print(format_table("Packets on the wire (all hosts, tx)",
                       ["type", "count", "bytes"], rows))
    print(f"\nretransmissions: {retrans['count']} packets "
          f"({retrans['ratio']:.1%} of DATA)")

    lat = feedback_latency(tracer.events, sender=scenario.sender.addr)
    if lat["samples"]:
        print(f"repair latency (NAK in -> retransmit out): "
              f"mean {lat['mean_us'] / 1000:.1f} ms, "
              f"max {lat['max_us'] / 1000:.1f} ms "
              f"over {lat['samples']} repairs")

    rcv = scenario.receivers[0].addr
    _, rate = throughput_timeline(tracer.events, host=rcv,
                                  bucket_us=200_000)
    print(f"\ngoodput at {rcv} (each char = 200 ms):")
    print("  " + sparkline(rate * 8 / 1e6))

    t, seqs = sequence_progress(tracer.events, rcv)
    print(f"stream progress at {rcv} (flat spots = recovery stalls):")
    print("  " + sparkline(seqs))

    # end-to-end recovery latency (NAK sent -> covering DATA delivered),
    # from the observability layer's packet-lifecycle spans -- a
    # receiver-side view that includes the round trip the sender-side
    # feedback_latency figure above cannot see
    recovery = obs.spans.recovery_us
    if recovery.count:
        print("\nrecovery latency, NAK out -> repair in "
              "(packet-lifecycle spans):")
        print(recovery.render())
        bursts = [s for s in obs.spans.spans if s.name == "recovery-burst"]
        if bursts:
            longest = max(bursts, key=lambda s: s.dur_us)
            print(f"\n{len(bursts)} recovery burst(s); longest "
                  f"{longest.dur_us / 1000:.1f} ms at {longest.host} "
                  f"(t={longest.start_us / 1000:.0f} ms)")


if __name__ == "__main__":
    main()
