#!/usr/bin/env python3
"""Chaos testing: crash a receiver mid-transfer and watch it rejoin.

Builds a seed-random fault plan (seed 10 is known to crash receiver 2
at t=0.15s and restart it at t=0.34s), runs an H-RMC transfer with the
protocol-invariant checker attached, and narrates the recovery: the
survivors finish the full stream, while the rejoined receiver locks
onto the live stream mid-flight -- the prefix it missed was already
(correctly) released by the sender, which it learns via NAK_ERR.

Run:  python examples/chaos_recovery.py
"""

from repro.core.config import HRMCConfig
from repro.harness.runner import run_transfer
from repro.workloads.scenarios import build_chaos
from repro.workloads.spec import CHAOS_TUNING

NBYTES = 250_000
SEED = 10


def main() -> None:
    scenario = build_chaos(3, 10e6, seed=SEED, horizon_us=1_000_000)
    print("fault plan (seed %d):" % SEED)
    for action in scenario.fault_plan.actions:
        print(f"  t={action.at_us / 1e6:.3f}s  {action.describe()}")

    res = run_transfer(scenario, nbytes=NBYTES, sndbuf=128 * 1024,
                       cfg=HRMCConfig(**CHAOS_TUNING), invariants=True)

    print(f"\n{res.fault_events} fault events fired; "
          f"{res.invariant_checks} invariant audits, all green")
    print(f"crashed: receivers {res.crashed_receivers}, "
          f"restarted: {res.restarted_receivers}\n")

    for i, r in enumerate(res.per_receiver):
        state = "completed" if r.done else "crashed mid-transfer"
        print(f"  rcv{i}: {r.bytes_done:>7} bytes, verified={r.verified} "
              f"({state})")
    for r in res.rejoin_results:
        print(f"  {r.name}: {r.bytes_done:>7} bytes, "
              f"resumed at offset {r.resumed_at_offset}, "
              f"verified={r.verified}")
        print(f"      -> prefix+suffix = "
              f"{r.resumed_at_offset + r.bytes_done} of {NBYTES} "
              f"(the gap was released before the rejoin; "
              f"NAK_ERR reported it)")

    print("\nsurvivors delivered the full verified stream:",
          res.surviving_ok)


if __name__ == "__main__":
    main()
