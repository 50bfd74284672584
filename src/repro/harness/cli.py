"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    hrmc-experiments --list
    hrmc-experiments fig10 fig13
    hrmc-experiments --all
    hrmc-experiments --all --scale full --parallel 8 --cache-stats s.json
    hrmc-experiments fig13 --refresh
    hrmc-experiments fleet status
    hrmc-experiments fleet prune
    hrmc-experiments report lan --receivers 5 --metrics-out out/
    hrmc-experiments report chaos --seed 10
    hrmc-experiments report chaos --fault-plan plan.json
    hrmc-experiments protocol-health

(or ``python -m repro.harness.cli``).  Experiment runs go through the
fleet (:mod:`repro.fleet`): specs are planned, served from the
content-addressed cache under ``--cache-dir`` (default
``.hrmc-cache``), and misses are executed -- on one worker process per
usable CPU, or on ``--parallel N``.  Report bodies go to stdout and are
byte-identical regardless of worker count or cache temperature; timing,
progress and cache accounting go to stderr (``--cache-stats FILE``
saves the accounting as JSON).  Each report states its claims; the
exit status is 1 if any fails, with one ``CLAIM FAILED`` line per
failure on stderr.  ``--no-cache`` runs without touching
the cache; ``--refresh`` re-executes and overwrites cached entries.

``fleet status`` summarizes the cache directory (entries, freshness
against the current code fingerprint, bytes); ``fleet prune`` deletes
entries the current code can no longer use.

``report lan|wan|chaos`` is the one command that runs one transfer.
It runs the spec bare, as a fleet cell runs it, and prints a headline,
what the fault plan did (``chaos`` only) and the run's protocol health
(:mod:`repro.obs.health`: NAK-suppression ledger, implosion and repair
economics, recovery lag).  ``report chaos --seed N`` is the ``chaos``
experiment's seed-N cell, with the invariant checker on; ``report
chaos --fault-plan FILE`` replays a saved
:class:`~repro.faults.plan.FaultPlan` on a LAN seeded from the plan.
``--metrics-out DIR`` also writes the health payload into
``DIR/<scenario>.health.json``.  Where the engine's time goes per
callback site is the benchmark's traced run (``python3 -m bench once
--trace 1``).  The exit status is 0 when every receiver the plan
spared got the whole verified stream and the sender finished, 1 when
not, and 2 on unusable input: a spec no world can be built from, or a
plan that cannot be loaded or run.
"""

from __future__ import annotations

import argparse
import json
# argparse's gettext imports locale at the first string it translates, in
# every invocation; named here it loads with the rest of start-up rather
# than inside the first command (it used to ride in with the pool modules)
import locale  # noqa: F401
import os
import sys
import time

# `--list` reads the inventory, which is plain data.  What `report` runs
# is imported with the CLI, so a profile of main() sees the command's
# work rather than its imports.  Every other command imports its own
# modules, and only the commands that run experiments load the
# experiments and the fleet.
from repro.harness.inventory import INVENTORY
from repro.harness.runner import run_transfer
from repro.obs.health import payload, summary_tables
from repro.stats.report import format_table
from repro.workloads.spec import CHAOS_TUNING, RunSpec

__all__ = ["main"]


# -- fleet subcommand ---------------------------------------------------

def _run_fleet(argv) -> int:
    """``fleet status`` / ``fleet prune``: cache administration."""
    from repro.fleet import DEFAULT_CACHE_DIR, ResultStore, code_fingerprint

    parser = argparse.ArgumentParser(
        prog="hrmc-experiments fleet",
        description="Inspect or prune the content-addressed run cache.")
    parser.add_argument("action", choices=("status", "prune"))
    parser.add_argument("--cache-dir", metavar="DIR",
                        default=DEFAULT_CACHE_DIR)
    args = parser.parse_args(argv)

    store = ResultStore(args.cache_dir, code_fingerprint())
    if args.action == "prune":
        removed = store.prune()
        print(f"pruned {removed} stale/corrupt entries "
              f"from {args.cache_dir}")
        return 0
    st = store.status()
    print(f"cache dir: {args.cache_dir}")
    print(f"entries:   {st.entries} ({st.total_bytes} bytes)")
    print(f"fresh:     {st.fresh} (usable with the current code)")
    print(f"stale:     {st.stale} (code fingerprint changed)")
    print(f"corrupt:   {st.corrupt}")
    for scenario, count in sorted(st.by_scenario.items()):
        print(f"  {scenario}: {count}")
    return 0


# -- report subcommand --------------------------------------------------

def _checked(make, *args, **kwargs):
    """``make(*args, **kwargs)``; ``None`` after a one-line reason if
    it refuses them (a spec no world can be built from)."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        print(f"unusable input: {exc}", file=sys.stderr)
        return None


def _spec(args):
    """The spec of the transfer ``args`` name: a canned scenario, the
    chaos experiment's cell, or a LAN under a saved fault plan; ``None``
    after a one-line reason if there is none."""
    bw = args.bandwidth * 1e6
    kw = {"nbytes": args.nbytes, "protocol": args.protocol}
    if args.sndbuf:
        kw["sndbuf"] = args.sndbuf
    if args.fault_plan:
        if args.scenario != "chaos" or args.seed is not None:
            print("--fault-plan runs under chaos only, seeded from the "
                  "plan (no --seed)", file=sys.stderr)
            return None
        from repro.faults.plan import FaultPlan
        try:
            plan = FaultPlan.load(args.fault_plan)
        except (OSError, ValueError, LookupError, TypeError,
                AttributeError) as exc:
            print(f"cannot load fault plan {args.fault_plan!r}: {exc}",
                  file=sys.stderr)
            return None
        kw.setdefault("sndbuf", 128 * 1024)
        return _checked(RunSpec.lan, args.receivers, bw, seed=plan.seed,
                        plan=plan.to_dict(), cfg=dict(CHAOS_TUNING),
                        invariants=True, **kw)
    kw["seed"] = 1 if args.seed is None else args.seed
    if args.scenario == "lan":
        return _checked(RunSpec.lan, args.receivers, bw, **kw)
    if args.scenario == "wan":
        return _checked(RunSpec.wan, test=args.wan_test, bandwidth_bps=bw,
                        receivers=args.receivers, **kw)
    return _checked(RunSpec.chaos, args.receivers, bw,
                    horizon_us=1_000_000, **kw)


def _print_faults(plan, result) -> None:
    """What the fault plan was and what it did to the run."""
    print(plan.describe())
    print(f"fault events: {result.fault_events}  "
          f"crashed: {result.crashed_receivers}  "
          f"restarted: {result.restarted_receivers}  "
          f"invariant checks: {result.invariant_checks}")
    for r in result.per_receiver:
        print(f"  {r.name}: bytes={r.bytes_done} verified={r.verified} "
              f"done={r.done}")
    for r in result.rejoin_results:
        print(f"  {r.name}: bytes={r.bytes_done} "
              f"resumed_at={r.resumed_at_offset} verified={r.verified}")
    print("survivors ok" if result.surviving_ok
          else "FAILED: survivor did not complete")


def _write_file(what: str, path: str, text: str, status) -> bool:
    """Write ``text`` and a newline to ``path``, then say so on
    ``status``; ``False`` after a one-line reason on stderr if ``path``
    cannot be written."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
            fh.write("\n")
    except OSError as exc:
        print(f"cannot write {path!r}: {exc.strerror or exc}",
              file=sys.stderr)
        return False
    print(f"wrote {what}: {path}", file=status)
    return True


def _write_health(health: dict, outdir: str, prefix: str) -> bool:
    """Write a run's health payload to ``outdir/<prefix>.health.json``
    and say so on stdout; ``False`` after a one-line reason on stderr
    if the directory cannot be made or the file written."""
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        print(f"cannot write artifacts to {outdir!r}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return False
    path = os.path.join(outdir, f"{prefix}.health.json")
    return _write_file("health", path,
                       json.dumps(health, indent=2, sort_keys=True),
                       sys.stdout)


def _run_report(argv) -> int:
    """``report lan|wan|chaos``: one transfer, then what its fault
    plan did and its protocol health."""
    parser = argparse.ArgumentParser(
        prog="hrmc-experiments report",
        description="Run one transfer and report it: what the fault plan "
                    "did and protocol health (NAK suppression, repair "
                    "economics, recovery lag).")
    parser.add_argument("scenario", choices=("lan", "wan", "chaos"),
                        help="canned scenario to run; chaos is the chaos "
                             "experiment's cell")
    parser.add_argument("--receivers", type=int, default=5)
    parser.add_argument("--nbytes", type=int, default=500_000)
    parser.add_argument("--seed", type=int, default=None,
                        help="topology (and chaos fault plan) seed "
                             "(default 1)")
    parser.add_argument("--bandwidth", type=float, default=10.0,
                        metavar="MBPS", help="link bandwidth in Mbit/s")
    parser.add_argument("--protocol", default="hrmc",
                        help="protocol to run (default hrmc)")
    parser.add_argument("--sndbuf", type=int, default=None, metavar="BYTES",
                        help="socket send-buffer size (default: the "
                             "runner's; chaos pins 128K)")
    parser.add_argument("--wan-test", type=int, default=2, metavar="N",
                        help="characteristic-group test case for wan")
    parser.add_argument("--fault-plan", metavar="FILE", default=None,
                        help="chaos only: run a saved FaultPlan JSON file "
                             "on a LAN seeded from the plan")
    parser.add_argument("--metrics-out", metavar="DIR", default=None,
                        help="also write the health JSON into DIR")
    args = parser.parse_args(argv)

    spec = _spec(args)
    if spec is None:
        return 2
    scenario, kwargs = spec.build()
    try:
        result = run_transfer(scenario, **kwargs)
    except ValueError as exc:  # e.g. the plan targets a missing receiver
        if scenario.fault_plan is None:
            raise
        print(f"cannot run fault plan: {exc}", file=sys.stderr)
        return 2
    print(f"{args.scenario} x{args.receivers} {args.protocol} "
          f"{args.nbytes} bytes: ok={result.ok} "
          f"throughput={result.throughput_mbps:.2f} Mbit/s "
          f"duration={result.duration_us / 1e6:.3f} s\n")
    if scenario.fault_plan is not None:
        _print_faults(scenario.fault_plan, result)
        print()
    health = payload(result)
    for title, headers, rows in summary_tables(health):
        print(format_table(title, headers, rows))
        print()
    if args.metrics_out and not _write_health(
            health, args.metrics_out, args.scenario):
        return 2
    return 0 if result.surviving_ok else 1


#: the subcommands, by their first word
_COMMANDS = {"report": _run_report, "fleet": _run_fleet}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is not None:
        return command(argv[1:])
    parser = argparse.ArgumentParser(
        prog="hrmc-experiments",
        description="Regenerate the tables and figures of the H-RMC "
                    "paper (SC '99) from the simulation.")
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (see --list)")
    parser.add_argument("--all", action="store_true",
                        help="run every experiment")
    parser.add_argument("--list", action="store_true",
                        help="list experiment ids and exit")
    parser.add_argument("--scale", choices=("quick", "full"), default=None,
                        help="quick = 1:5 scaled transfers (default); "
                             "full = paper-size 10/40 MB transfers")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of tables")
    parser.add_argument("--parallel", type=int, default=None, metavar="N",
                        help="worker processes for the run fleet "
                             "(default: one per usable CPU; 1 = serial "
                             "in-process)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="content-addressed run cache location "
                             "(default .hrmc-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the run cache")
    parser.add_argument("--refresh", action="store_true",
                        help="re-execute every run, overwriting cached "
                             "entries")
    parser.add_argument("--cache-stats", metavar="FILE", default=None,
                        help="write fleet/cache accounting as JSON")
    parser.add_argument("--job-timeout", type=float, default=900.0,
                        metavar="S", help="per-run wall-clock budget in "
                                          "seconds (default 900)")
    args = parser.parse_args(argv)

    if args.list:
        wid = max(map(len, INVENTORY))
        for info in INVENTORY.values():
            print(f"{info.exp_id:<{wid}}  {info.figure}")
        return 0

    targets = list(INVENTORY) if args.all else args.experiments
    if not targets:
        parser.print_usage()
        return 2
    unknown = [t for t in targets if t not in INVENTORY]
    if unknown:
        for exp_id in unknown:
            print(f"unknown experiment {exp_id!r}; "
                  f"known: {', '.join(INVENTORY)}", file=sys.stderr)
        return 2

    from repro.fleet import DEFAULT_CACHE_DIR, Fleet, FleetError
    from repro.harness.experiments import run_experiments
    cache_dir = None if args.no_cache else \
        (args.cache_dir or DEFAULT_CACHE_DIR)
    fleet = Fleet(workers=args.parallel, cache_dir=cache_dir,
                  refresh=args.refresh, timeout_s=args.job_timeout,
                  progress=sys.stderr.isatty())
    started = time.time()
    try:
        reports = run_experiments(targets, args.scale, fleet)
    except FleetError as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 1
    finally:
        elapsed = time.time() - started
        print(fleet.stats.render(), file=sys.stderr)
        if args.cache_stats:
            stats = dict(fleet.stats.as_dict(), argv=targets,
                         scale=args.scale, elapsed_s=round(elapsed, 3))
            _write_file("cache stats", args.cache_stats,
                        json.dumps(stats, indent=2, sort_keys=True),
                        sys.stderr)

    # stdout carries only the deterministic report bodies: identical
    # for serial, parallel and warm-cache executions (CI byte-compares)
    failed = 0
    for exp_id in targets:
        report = reports[exp_id]
        if args.json:
            print(json.dumps({
                "id": report.exp_id,
                "title": report.title,
                "tables": [{"title": t, "headers": h, "rows": r}
                           for t, h, r in report.tables],
                "claims": [{"text": t, "holds": ok}
                           for t, ok in report.claims],
                "notes": report.notes,
            }, sort_keys=True))
        else:
            print(report.render())
            print()
        for text in report.failed:
            print(f"CLAIM FAILED {exp_id}: {text}", file=sys.stderr)
        failed += len(report.failed)
        print(f"[{exp_id} done]", file=sys.stderr)
    print(f"[{len(targets)} experiment(s) in {elapsed:.1f}s]",
          file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
