"""`bench compare A.json B.json`: A is the parent, B the change."""

from __future__ import annotations

import json
from statistics import median

from bench.once import spec, units

# timed metrics carry the bound BENCHMARK.json fixes; these three are
# not timed (they repeat exactly at one seed) and cannot be end-to-end
# metrics under the driver's contract, so their bounds live here
EXTRA = (("host_calls_per_MB", "lower", 0.01),
         ("core.wire_efficiency", "higher", 0.01),
         ("fail_share", "lower", 0.0))


def verdict(a: list[float], b: list[float], better: str, bound: float,
            spread_a: float) -> tuple[float, str]:
    """Signed relative worsening of B's median, and the verdict."""
    med_a, med_b = median(a), median(b)
    sign = 1 if better == "lower" else -1
    worse = sign * (med_b - med_a) / med_a if med_a else \
        float(sign * (med_b - med_a) > 0)
    b_wins = all(sign * (y - x) < 0 for x in a for y in b)
    a_wins = all(sign * (y - x) > 0 for x in a for y in b)
    if spread_a > bound and not (a_wins or b_wins):
        return worse, "unresolved"
    if worse > bound:
        return worse, "worse"
    return worse, "better" if b_wins else "same"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    for path, result in ((path_a, a), (path_b, b)):
        if result["smoke"]:
            print(f"{path} is a smoke result: it measures nothing")
            return 2
    if a["seed"] != b["seed"]:
        print(f"seeds differ ({a['seed']} vs {b['seed']}): the simulated "
              f"statistics are not comparable")
        return 2

    any_worse = False
    unit = units()
    print(f"{'workload':<20} {'metric':<21} {'unit':<7} {'A median':>11} "
          f"{'B median':>11} {'delta':>8} {'bound':>6}  verdict")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"{name:<20} missing from B")
            any_worse = True
            continue
        rows = []
        for m in spec()["end_to_end"]:
            sa, sb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            spread = (sa["q3"] - sa["q1"]) / sa["median"]
            rows.append((m["name"], m["better"], m["bound"], sa["values"],
                         sb["values"], spread))
        for metric, better, bound in EXTRA:
            va = wa[metric] if metric in wa else wa["per_layer"][metric]
            vb = wb[metric] if metric in wb else wb["per_layer"][metric]
            if va >= 0 and vb >= 0:        # -1: not taken on this workload
                rows.append((metric, better, bound, [va], [vb], 0.0))
        for metric, better, bound, va, vb, spread in rows:
            worse, word = verdict(va, vb, better, bound, spread)
            any_worse |= word == "worse"
            delta = worse if better == "lower" else -worse
            print(f"{name:<20} {metric:<21} {unit.get(metric, 'ratio'):<7} "
                  f"{median(va):>11.5g} {median(vb):>11.5g} {delta:>+8.2%} "
                  f"{bound:>6.0%}  {word}")
        # every per-MB metric is a count of one deterministic simulation
        exact = [k for k in wa["per_layer"] if k.endswith("_per_MB")]
        moved = [k for k in exact
                 if wa["per_layer"][k] != wb["per_layer"].get(k)]
        # None marks a hash that moved between rounds of one result
        same_sha = wa["sim_stats_sha"] is not None and \
            wa["sim_stats_sha"] == wb["sim_stats_sha"]
        print(f"{name:<20} sim_stats_sha {'unchanged' if same_sha else 'CHANGED'}"
              f"; exact counts: {len(exact) - len(moved)} of {len(exact)} "
              f"identical" + (f"; moved: {', '.join(moved)}" if moved else ""))
    return 1 if any_worse else 0
