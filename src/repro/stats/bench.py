"""Shared schema for the repo's ``BENCH_*.json`` snapshots.

Every per-PR benchmark (``BENCH_PR2.json`` engine snapshot,
``BENCH_PR4.json`` fleet speedup, ``BENCH_PR7.json`` perf-observatory
overhead, ...) wraps its payload
with :func:`write_bench_snapshot`, so all snapshots carry the same
envelope -- schema version, git revision, python version and host
information -- and stay comparable across PRs and machines.

Schema v2 adds the *trajectory*: every snapshot must carry a
top-level ``events_per_s`` (the repo's canonical throughput metric,
whatever else a bench measures), and every regeneration appends one
line to ``BENCH_HISTORY.jsonl`` beside the snapshot.  Point snapshots
say where a PR landed; the history says where the codebase has been --
the longitudinal record ROADMAP item 1's engine overhaul is gated
against (``hrmc perf history`` / ``hrmc perf compare``).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

__all__ = ["BENCH_SCHEMA_VERSION", "bench_environment",
           "write_bench_snapshot", "append_history", "measure_events_per_s",
           "PINNED_SCENARIO"]

#: bump when the envelope layout changes incompatibly
#: (v2: required top-level ``events_per_s`` + BENCH_HISTORY.jsonl append)
BENCH_SCHEMA_VERSION = 2

#: the repo's pinned measurement scenario (same as BENCH_PR2 since PR 2):
#: 2 receivers on 100 Mbps, 2 MB memory-to-memory, 512K buffers
PINNED_SCENARIO = {
    "kind": "lan", "receivers": 2, "seed": 7,
    "bandwidth_bps": 100e6, "nbytes": 2_000_000, "sndbuf": 512 * 1024,
}


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def bench_environment() -> dict:
    """The envelope every ``BENCH_*.json`` snapshot shares."""
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
        "host": platform.node() or "unknown",
    }


def append_history(history_path: str, name: str, events_per_s: float,
                   environment: dict | None = None,
                   extra: dict | None = None) -> dict:
    """Append one trajectory row to ``BENCH_HISTORY.jsonl``.

    Rows are single-line JSON, newest last, each carrying the canonical
    metric plus enough environment to judge comparability.  The wall
    date is recorded for the humans reading the log; nothing simulated
    depends on it.

    Re-running a bench at the same revision *replaces* the previous
    ``(bench, git_rev)`` row instead of appending a duplicate -- the
    history is one point per bench per revision, so rerunning the
    suite locally can't make the trajectory double-count.
    """
    environment = environment or bench_environment()
    row = {
        "bench": name,
        "events_per_s": round(float(events_per_s), 1),
        "git_rev": environment.get("git_rev", "unknown"),
        "python": environment.get("python", "unknown"),
        "host": environment.get("host", "unknown"),
        "cpus": environment.get("cpus", 1),
        "schema_version": BENCH_SCHEMA_VERSION,
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
    }
    if extra:
        row.update(extra)
    kept: list[str] = []
    if os.path.exists(history_path):
        with open(history_path) as fh:
            for line in fh:
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    prev = json.loads(stripped)
                except json.JSONDecodeError:
                    kept.append(stripped)     # keep junk lines verbatim
                    continue
                if (isinstance(prev, dict)
                        and prev.get("bench") == row["bench"]
                        and prev.get("git_rev") == row["git_rev"]):
                    continue                  # superseded by this run
                kept.append(stripped)
    kept.append(json.dumps(row, sort_keys=True))
    with open(history_path, "w") as fh:
        fh.write("\n".join(kept) + "\n")
    return row


def write_bench_snapshot(path: str, name: str, payload: dict, *,
                         events_per_s: float,
                         history_path: str | None = None,
                         history: bool = True) -> dict:
    """Write ``payload`` wrapped in the shared envelope; returns the
    full document (also pretty-printed to stdout by callers).

    ``events_per_s`` is mandatory in schema v2: whatever else a bench
    measures, it must report the canonical engine-throughput metric so
    every snapshot is a point on the same trajectory.  Unless
    ``history=False``, one row is appended to ``history_path``
    (default: ``BENCH_HISTORY.jsonl`` next to the snapshot).
    """
    env = bench_environment()
    doc = {
        "bench": name,
        "environment": env,
        "events_per_s": round(float(events_per_s), 1),
        **payload,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if history:
        if history_path is None:
            history_path = os.path.join(
                os.path.dirname(os.path.abspath(path)),
                "BENCH_HISTORY.jsonl")
        append_history(history_path, name, events_per_s, env)
    return doc


def measure_events_per_s(*, repeats: int = 1, nbytes: int | None = None,
                         receivers: int | None = None) -> dict:
    """Run the pinned measurement scenario bare (no observability) and
    return ``{"events_per_s", "sim_events", "wall_s", "scenario"}``.

    The calibration primitive behind ``hrmc perf compare --fresh`` and
    the CI gate: same scenario as ``BENCH_PR2.json``, best of
    ``repeats`` runs (the max events/s -- wall-clock noise only ever
    slows a run down).  Imports lazily so the stats layer stays cheap
    to import.
    """
    from time import perf_counter

    from repro.harness.runner import run_transfer
    from repro.workloads.scenarios import build_lan

    scenario = dict(PINNED_SCENARIO)
    if nbytes is not None:
        scenario["nbytes"] = int(nbytes)
    if receivers is not None:
        scenario["receivers"] = int(receivers)
    best = None
    for _ in range(max(1, int(repeats))):
        sc = build_lan(scenario["receivers"], scenario["bandwidth_bps"],
                       seed=scenario["seed"])
        t0 = perf_counter()
        res = run_transfer(sc, nbytes=scenario["nbytes"],
                           sndbuf=scenario["sndbuf"])
        wall_s = perf_counter() - t0
        if not res.ok:
            raise RuntimeError("pinned measurement scenario failed")
        eps = res.sim_events / wall_s
        if best is None or eps > best["events_per_s"]:
            best = {"events_per_s": round(eps, 1),
                    "sim_events": res.sim_events,
                    "wall_s": round(wall_s, 3)}
    assert best is not None
    best["scenario"] = scenario
    return best
