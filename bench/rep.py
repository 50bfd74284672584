"""One repetition of one workload, in a fresh interpreter.

    python -m bench.rep <workload> <seed> <mode> <smoke 0|1> [max_sim_s]

`bare` runs a transfer workload once with tracing off and reports host
times and the simulated statistics.  `traced` runs any workload once
under cProfile (CLI workloads through `repro.harness.cli.main`) and
adds the per-layer fold and the spans.  `obs-ratio` times the report
workload's transfer with and without the observer, in one process.
Bare CLI repetitions are not run here: the parent runs the CLI itself.

The last line of stdout is one JSON object.  The parent passes its
spawn time in BENCH_T0 so set-up time counts the interpreter start.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout

from bench.layers import Spans, attribute
from bench.workloads import (COUNTER_METRICS, WORKLOADS, Workload, check_cli,
                             cli_argv)


def _cpu_s() -> float:
    """User+system CPU of this process and the children it waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _build(w: Workload, seed: int):
    from repro.workloads import build_lan, build_wan, expand_test_case
    bps = w.bandwidth_mbps * 1e6
    if w.topo == "wan":
        return build_wan(expand_test_case(w.wan_test, w.receivers), bps,
                         seed=seed)
    return build_lan(w.receivers, bps, seed=seed)


def _sim_record(w: Workload, scenario, result) -> dict:
    """What the transfer achieved in simulated terms, the hash that
    must not move when only the engine changes, and the per-layer
    metrics that are read from public counters."""
    snd, rcv = result.sender_stats, result.receiver_stats
    failed = sum(1 for r in result.per_receiver
                 if not (r.done and r.verified and r.bytes_done == w.nbytes))
    canon = json.dumps(
        {"sender": snd.as_dict(), "receivers": rcv.as_dict(),
         "duration_us": result.duration_us, "sim_events": result.sim_events,
         "drops": result.drop_summary},
        sort_keys=True, separators=(",", ":"))
    sent = snd.data_bytes_sent + snd.retrans_bytes
    mb = w.delivered_mb
    return {
        "attempted": w.receivers,
        # a run that is not `ok` with every stream complete (sender
        # never finished, RMC hole) fails at least one operation
        "failed": failed if result.ok or failed else 1,
        "goodput_mbps": result.throughput_mbps,
        "sha": hashlib.sha256(canon.encode()).hexdigest(),
        "per_layer": dict(zip(COUNTER_METRICS, (
            result.sim_events / mb,
            scenario.sim.compactions,
            sum(result.drop_summary.values()) / mb,
            result.drop_summary.get("nic_rx_ring", 0),
            snd.data_pkts_sent / mb,
            snd.retrans_pkts / max(1, snd.data_pkts_sent),
            rcv.dup_pkts_rcvd / max(1, rcv.data_pkts_rcvd),
            rcv.naks_sent / mb,
            rcv.rate_requests_sent / mb,
            rcv.feedback_total / mb,
            result.release_complete_pct,
            snd.data_bytes_sent / max(1, sent),
        ))),
    }


def _transfer(w: Workload, seed: int, traced: bool,
              max_sim_s: float | None) -> dict:
    spans = Spans()
    before = len(sys.modules)
    with spans.span("rep"):
        with spans.span("import"):
            from repro.harness.runner import run_transfer
        modules = len(sys.modules) - before
        with spans.span("build"):
            scenario = _build(w, seed)
        setup_s = time.time() - float(os.environ["BENCH_T0"])
        kwargs = {} if max_sim_s is None else {"max_sim_s": max_sim_s}
        profile = None
        if traced:
            import cProfile
            profile = cProfile.Profile()
        with spans.span("run") as run:
            cpu0 = _cpu_s()
            with profile or nullcontext():
                result = run_transfer(scenario, nbytes=w.nbytes,
                                      sndbuf=w.sndbuf, disk=w.disk, seed=seed,
                                      **kwargs)
            cpu_s = _cpu_s() - cpu0
        with spans.span("collect"):
            sim = _sim_record(w, scenario, result)
    return {"setup_s": setup_s, "import_s": spans.duration("import"),
            "import_modules": modules,
            "wall_s": run["end_s"] - run["start_s"], "cpu_s": cpu_s,
            "sim": sim, "spans": spans.rows,
            "layers": attribute(profile.getstats()) if profile else None}


def _cli_traced(w: Workload, seed: int) -> dict:
    import cProfile
    spans = Spans()
    before = len(sys.modules)
    out = io.StringIO()
    profile = cProfile.Profile()
    with spans.span("rep"):
        with spans.span("import"):
            from repro.harness.cli import main as cli_main
        modules = len(sys.modules) - before
        with spans.span("run") as run:
            with redirect_stdout(out), redirect_stderr(io.StringIO()), profile:
                code = cli_main(cli_argv(w, seed))
    return {"import_s": spans.duration("import"), "import_modules": modules,
            "wall_s": run["end_s"] - run["start_s"],
            "sim": check_cli(w, out.getvalue(), code), "spans": spans.rows,
            "layers": attribute(profile.getstats())}


def _obs_ratio(w: Workload, seed: int) -> dict:
    """Observed / bare wall of the report workload's transfer: two
    alternating pairs, the faster of each kind."""
    from repro.harness.runner import run_transfer
    from repro.obs import Observability
    walls = {"bare": [], "observed": []}
    for kind in ("bare", "observed") * 2:
        obs = Observability(profile=True) if kind == "observed" else None
        scenario = _build(w, seed)
        start = time.perf_counter()
        result = run_transfer(scenario, nbytes=w.nbytes, sndbuf=w.sndbuf,
                              seed=seed, obs=obs)
        walls[kind].append(time.perf_counter() - start)
        if not result.ok:
            raise SystemExit(f"{w.name}: {kind} transfer failed")
    return {"obs_overhead_ratio": min(walls["observed"]) / min(walls["bare"])}


def main(argv: list[str]) -> int:
    name, seed, mode, smoke = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    max_sim_s = float(argv[4]) if len(argv) > 4 else None
    w = WORKLOADS[name].smoke() if smoke else WORKLOADS[name]
    if mode == "obs-ratio":
        out = _obs_ratio(w, seed)
    elif w.kind == "transfer":
        out = _transfer(w, seed, mode == "traced", max_sim_s)
    else:
        out = _cli_traced(w, seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
