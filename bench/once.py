"""One run of one workload: the unit the driver and `bench run` repeat.

With tracing off a run is `ceil(seconds / rep_s)` repetitions, each a
fresh interpreter, one at a time; every end-to-end metric is the median
over the repetitions.  With tracing on it is one repetition under
cProfile plus one bare repetition to price the tracing.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from statistics import median

from bench.layers import LAYERS, ROOT
from bench.workloads import (COUNTER_METRICS, WORKLOADS, Workload,
                             check_cli, cli_argv, rep_seed)

SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
NA = -1     # a per-layer metric that does not apply or cannot be taken


@functools.cache
def spec() -> dict:
    """BENCHMARK.json: the one place names, units and bounds are fixed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def units() -> dict[str, str]:
    return {m["name"]: m["unit"]
            for m in spec()["end_to_end"] + spec()["per_layer"]}


def _spawn(args: list[str], check: bool = False) -> dict:
    """Run `python <args>` from the repo root to completion and return
    its stdout, exit code, wall, CPU and peak RSS (of it and of the
    children it waited for).  `check` turns a non-zero exit into an
    error; without it the caller counts the failure."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    # let the children cache bytecode in the checkout as a user's python
    # does, or every repetition's set-up would time the compiler
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, \
            tempfile.TemporaryFile(dir=OUT) as err:
        start = time.time()
        env["BENCH_T0"] = repr(start)
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                stdout=out, stderr=err)
        try:
            # wait4 rather than Popen.wait: it returns this child's rusage
            _, status, usage = os.wait4(proc.pid, 0)
            wall_s = time.time() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        out.seek(0)
        err.seek(0)
        if check and proc.returncode != 0:
            raise RuntimeError(
                f"python {' '.join(args)} exited {proc.returncode}:\n"
                f"{err.read().decode()[-2000:]}")
        return {"stdout": out.read().decode(), "stderr": err.read().decode(),
                "returncode": proc.returncode, "wall_s": wall_s,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024}    # Linux: KiB


def _rep(w: Workload, seed: int, mode: str, smoke: bool,
         max_sim_s: float | None = None) -> dict:
    """One `bench.rep` child; its JSON plus the child's peak RSS."""
    args = ["-m", "bench.rep", w.name, str(seed), mode, str(int(smoke))]
    if max_sim_s is not None:
        args.append(repr(max_sim_s))
    child = _spawn(args, check=True)
    out = json.loads(child["stdout"].splitlines()[-1])
    out["peak_rss_mb"] = child["peak_rss_mb"]
    return out


def _bare(w: Workload, seed: int, smoke: bool,
          max_sim_s: float | None = None) -> dict:
    """One untraced repetition: host times, peak RSS, simulated record."""
    if w.kind == "transfer":
        return _rep(w, seed, "bare", smoke, max_sim_s)
    child = _spawn(["-m", "repro.harness.cli", *cli_argv(w, seed)])
    child["sim"] = check_cli(w, child["stdout"], child["returncode"])
    return child


def _cli_setup_s() -> float:
    """What a CLI user waits for before any work starts: interpreter,
    `import repro.harness.cli`, argument parsing -- timed as `--list`."""
    return _spawn(["-m", "repro.harness.cli", "--list"], check=True)["wall_s"]


def _end_to_end(w: Workload, seed: int, seconds: float, smoke: bool,
                max_sim_s: float | None) -> dict:
    n = 2 if smoke else max(1, math.ceil(seconds / w.rep_s))
    reps = [_bare(w, rep_seed(seed, i), smoke, max_sim_s) for i in range(n)]
    if w.kind == "transfer":
        setups = [r["setup_s"] for r in reps]
    else:
        setups = [_cli_setup_s() for _ in range(2 if smoke else max(n, 5))]
    sims = [r["sim"] for r in reps]
    return {
        "attempted": sum(s["attempted"] for s in sims),
        "failed": sum(s["failed"] for s in sims),
        "sim_stats_sha": _sha_of([s["sha"] for s in sims]),
        "metrics": {
            "setup_s": median(setups),
            "wall_s": median(r["wall_s"] for r in reps),
            "cpu_s": median(r["cpu_s"] for r in reps),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
            "sim_goodput_mbps": median(s["goodput_mbps"] for s in sims),
        },
    }


def _traced(w: Workload, seed: int, smoke: bool) -> dict:
    """Every per-layer metric, from one profiled and one bare
    repetition of the run's first seed; the spans go to bench/out/."""
    seed = rep_seed(seed, 0)
    traced = _rep(w, seed, "traced", smoke)
    bare = _bare(w, seed, smoke)
    mb = w.delivered_mb
    layers, sim = traced["layers"], traced["sim"]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_share"] = \
            layers["self_s"].get(layer, 0.0) / layers["total_s"]
        m[f"{layer}.calls_per_MB"] = layers["calls"].get(layer, 0) / mb
        m[f"{layer}.calls_in_per_MB"] = layers["calls_in"].get(layer, 0) / mb
    for stem, count in layers["named"].items():
        m[f"{stem}_per_MB"] = NA if count is None else count / mb
    m["host_calls_per_MB"] = layers["total_calls"] / mb
    # public counters: a CLI run prints none of them
    m.update(sim.get("per_layer") or dict.fromkeys(COUNTER_METRICS, NA))
    m["obs.overhead_ratio"] = \
        _rep(w, seed, "obs-ratio", smoke)["obs_overhead_ratio"] \
        if w.kind == "report" else NA
    m["harness.import_s"] = traced["import_s"]
    m["harness.import_modules"] = traced["import_modules"]
    m["fleet.cells"] = w.cells
    # CLI workloads: the bare side is the whole subprocess, so the
    # traced side is the whole repetition (import + main)
    traced_wall = traced["wall_s"] if w.kind == "transfer" else \
        traced["spans"][0]["end_s"] - traced["spans"][0]["start_s"]
    m["trace_overhead_ratio"] = traced_wall / bare["wall_s"]
    m["trace_coverage"] = layers["coverage"]

    with open(os.path.join(OUT, f"spans-{w.name}.json"), "w") as fh:
        json.dump(traced["spans"], fh, indent=1)
    sims = [sim, bare["sim"]]
    return {"attempted": sum(s["attempted"] for s in sims),
            "failed": sum(s["failed"] for s in sims),
            "sim_stats_sha": _sha_of([s["sha"] for s in sims]),
            "metrics": m}


def _sha_of(shas: list[str]) -> str:
    return hashlib.sha256("".join(shas).encode()).hexdigest()


def run_once(name: str, seed: int, seconds: float, trace: bool,
             smoke: bool = False, max_sim_s: float | None = None) -> dict:
    """Run workload `name` once; see the module docstring."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise RuntimeError(f"nothing to measure: {SRC}/repro is missing")
    w = WORKLOADS[name].smoke() if smoke else WORKLOADS[name]
    out = _traced(w, seed, smoke) if trace else \
        _end_to_end(w, seed, seconds, smoke, max_sim_s)
    declared = spec()["per_layer" if trace else "end_to_end"]
    missing = {m["name"] for m in declared} ^ set(out["metrics"])
    if missing:
        raise RuntimeError(f"BENCHMARK.json and bench/once.py disagree "
                           f"on {sorted(missing)}")
    out.update(workload=name, seed=seed, trace=trace, smoke=smoke,
               correct=out["failed"] == 0)
    return out


def result_line(out: dict) -> str:
    """The driver's contract: one JSON object, last line of stdout."""
    unit = units()
    return json.dumps({
        "correct": out["correct"], "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": unit[k]}
                    for k, v in out["metrics"].items()}})
