"""`bench run`: rounds of every workload, interleaved, into one result file."""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from statistics import median, quantiles

from bench.once import run_once, spec, units


def summarise(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median(values), "q1": q1, "q3": q3,
            "min": min(values), "n": len(values), "values": values}


def run(names: list[str], seed: int, rounds: int, seconds: float,
        smoke: bool, out_dir: str) -> int:
    per_round: dict[str, list[dict]] = {name: [] for name in names}
    for r in range(rounds):
        # reversed on odd rounds, so no workload always follows another
        for name in names[::-1] if r % 2 else names:
            print(f"[round {r + 1}/{rounds}] {name}", file=sys.stderr)
            per_round[name].append(run_once(name, seed, seconds, False, smoke))

    workloads = {}
    for name in names:
        print(f"[traced] {name}", file=sys.stderr)
        traced = run_once(name, seed, seconds, True, smoke)
        runs = per_round[name]
        shas = {r["sim_stats_sha"] for r in runs}
        attempted = sum(r["attempted"] for r in runs) + traced["attempted"]
        failed = sum(r["failed"] for r in runs) + traced["failed"]
        if len(shas) > 1:
            # simulated statistics moved between identical runs: none of
            # them can be trusted
            failed = attempted
        workloads[name] = {
            "sim_stats_sha": shas.pop() if len(shas) == 1 else None,
            "attempted": attempted, "failed": failed,
            "fail_share": failed / attempted,
            "end_to_end": {m["name"]: summarise([r["metrics"][m["name"]]
                                                 for r in runs])
                           for m in spec()["end_to_end"]},
            "per_layer": traced["metrics"],
        }

    result = {"smoke": smoke, "seed": seed, "rounds": rounds,
              "seconds": seconds,
              "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                       "machine": platform.machine()},
              "workloads": workloads}
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"result-seed{seed}-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    print(render(result))
    print(f"\nwrote {path}")
    return 1 if any(w["failed"] for w in workloads.values()) else 0


def render(result: dict) -> str:
    unit = units()
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    lines = []
    for name, w in result["workloads"].items():
        sha = w["sim_stats_sha"]
        lines.append(f"\n== {name}  fail_share={w['fail_share']:g} "
                     f"({w['failed']}/{w['attempted']})  sim_stats_sha="
                     f"{sha[:12] if sha else 'UNSTABLE across rounds'}")
        for metric, s in w["end_to_end"].items():
            lines.append(
                f"  {metric:<22} {unit[metric]:<7} median {s['median']:<10.5g}"
                f" q1 {s['q1']:<10.5g} q3 {s['q3']:<10.5g} min {s['min']:<10.5g}"
                f" n {s['n']}  bound {bounds[metric]:.0%}")
        for metric, value in w["per_layer"].items():
            lines.append(f"  {metric:<28} {unit[metric]:<6} {value:.6g}")
    return "\n".join(lines)
