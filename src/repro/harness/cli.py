"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    hrmc-experiments --list
    hrmc-experiments fig10 fig13
    hrmc-experiments --all
    hrmc-experiments --all --scale full --parallel 8 --cache-stats s.json
    hrmc-experiments fig13 --refresh
    hrmc-experiments fleet status
    hrmc-experiments fleet prune
    hrmc-experiments --chaos-seed 10
    hrmc-experiments --fault-plan plan.json --metrics-out out/
    hrmc-experiments report lan --receivers 5 --metrics-out out/
    hrmc-experiments protocol-health
    hrmc-experiments health report wan

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

``--chaos-seed``/``--fault-plan``
run one fault-injected transfer with the invariant checker attached and
print what happened (see :mod:`repro.faults`).  ``--metrics-out DIR``
additionally attaches the observability layer (:mod:`repro.obs`) and
writes its artifacts -- JSONL/CSV metric series, a text summary and a
Perfetto-loadable trace -- into ``DIR``.

Subcommands:

* ``report lan|wan|chaos`` runs one observed transfer of a canned
  scenario under the engine profiler and prints the observability
  summary, which ends with the hottest callback sites; ``--metrics-out
  DIR`` also writes the run's artifacts into ``DIR``.
* ``health report lan|wan|chaos`` runs one transfer and reads its
  protocol health (:mod:`repro.obs.health`): NAK-suppression ledger,
  feedback-implosion index, repair economics and recovery-lag
  distributions.  The ``protocol-health`` experiment holds the two
  pinned runs to their bounds, and the ``scaling`` experiment holds
  feedback at the sender flat as the group grows.

Every command that runs one transfer builds a
:class:`~repro.workloads.spec.RunSpec` from its arguments -- the spec a
fleet cell runs -- and exits 2 with a one-line reason when no world can
be built from it.
"""

from __future__ import annotations

import argparse
import json
# argparse's gettext imports locale at the first string it translates, in
# every invocation; named here it loads with the rest of start-up rather
# than inside the first command (it used to ride in with the pool modules)
import locale  # noqa: F401
import sys
import time

# `--list` reads the inventory, which is plain data.  What `report` runs
# is imported with the CLI, so a profile of main() sees the command's
# work rather than its imports: that includes the packet seam the runner
# installs for an observed run.  Every other command imports its own
# modules, and only the commands that run experiments load the
# experiments and the fleet.
import repro.trace.tracer  # noqa: F401
from repro.harness.inventory import INVENTORY
from repro.harness.runner import run_transfer
from repro.obs.observer import Observability
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


def _run_chaos(args) -> int:
    """Run one fault-injected transfer and report what happened: the
    seed's chaos cell, or a LAN of the same shape under a saved plan."""
    if args.fault_plan:
        from repro.faults.plan import FaultPlan
        try:
            plan = FaultPlan.load(args.fault_plan)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load fault plan {args.fault_plan!r}: {exc}",
                  file=sys.stderr)
            return 2
        spec = _checked(RunSpec.lan, args.receivers, 10e6, seed=plan.seed,
                        nbytes=args.nbytes, plan=plan.to_dict(),
                        sndbuf=128 * 1024, cfg=CHAOS_TUNING,
                        invariants=True)
    else:
        spec = _checked(RunSpec.chaos, args.receivers, 10e6,
                        seed=args.chaos_seed, horizon_us=1_000_000,
                        nbytes=args.nbytes)
    if spec is None:
        return 2
    scenario, kwargs = spec.build()
    print(scenario.fault_plan.describe())
    obs = Observability(profile=True) if args.metrics_out else None
    try:
        result = run_transfer(scenario, obs=obs, **kwargs)
    except ValueError as exc:  # e.g. plan targets a missing receiver
        print(f"cannot run fault plan: {exc}", file=sys.stderr)
        return 2
    if obs is not None and not _write_artifacts(obs, args.metrics_out,
                                                "chaos"):
        return 2
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
    ok = result.surviving_ok
    print("survivors ok" if ok else "FAILED: survivor did not complete")
    return 0 if ok else 1


# -- shared scenario construction ---------------------------------------

def _scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scenario", choices=("lan", "wan", "chaos"),
                        help="canned scenario to observe")
    parser.add_argument("--receivers", type=int, default=5)
    parser.add_argument("--nbytes", type=int, default=500_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--bandwidth", type=float, default=10.0,
                        metavar="MBPS", help="link bandwidth in Mbit/s")
    parser.add_argument("--protocol", default="hrmc",
                        help="protocol to run (default hrmc)")
    parser.add_argument("--sndbuf", type=int, default=None, metavar="BYTES",
                        help="socket send-buffer size (default: the "
                             "runner's; chaos pins 128K)")
    parser.add_argument("--wan-test", type=int, default=2, metavar="N",
                        help="characteristic-group test case for wan")


def _checked(make, *args, **kwargs):
    """``make(*args, **kwargs)``; ``None`` after a one-line reason if
    it refuses them (a spec no world can be built from)."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        print(f"unusable input: {exc}", file=sys.stderr)
        return None


def _transfer(args, obs=None):
    """Run the transfer of the canned scenario ``args`` names -- the run
    behind ``report`` and ``health report`` -- on a world built from
    its spec; ``None`` if the spec is refused."""
    bw = args.bandwidth * 1e6
    kw = {"seed": args.seed, "nbytes": args.nbytes,
          "protocol": args.protocol}
    if args.sndbuf:
        kw["sndbuf"] = args.sndbuf
    if args.scenario == "lan":
        spec = _checked(RunSpec.lan, args.receivers, bw, **kw)
    elif args.scenario == "wan":
        spec = _checked(RunSpec.wan, test=args.wan_test, bandwidth_bps=bw,
                        receivers=args.receivers, **kw)
    else:
        spec = _checked(RunSpec.chaos, args.receivers, bw,
                        horizon_us=1_000_000, allow_crash=False, **kw)
    if spec is None:
        return None
    scenario, kwargs = spec.build()
    return run_transfer(scenario, obs=obs, **kwargs)


def _write_artifacts(obs, outdir: str, prefix: str, *,
                     spaced: bool = False) -> bool:
    """Write an observed run's artifacts into ``outdir`` and list them
    on stdout (after a blank line if ``spaced``); ``False`` after a
    one-line reason on stderr if the directory cannot be written."""
    try:
        paths = obs.write_artifacts(outdir, prefix=prefix)
    except OSError as exc:
        print(f"cannot write artifacts to {outdir!r}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return False
    if spaced:
        print()
    for name, path in paths.items():
        print(f"wrote {name}: {path}")
    return True


def _write_file(what: str, path: str, text: str, status) -> bool:
    """Write ``text`` and a newline to ``path``, then say so on
    ``status`` (stderr when stdout carries a JSON document); ``False``
    after a one-line reason on stderr if ``path`` cannot be written."""
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


# -- report subcommand --------------------------------------------------

def _run_report(argv) -> int:
    """``report`` subcommand: one observed transfer + obs summary."""
    parser = argparse.ArgumentParser(
        prog="hrmc-experiments report",
        description="Run one observed transfer and print the "
                    "observability report (metric series, packet "
                    "lifecycle latency, protocol phases, profile).")
    _scenario_args(parser)
    parser.add_argument("--metrics-out", metavar="DIR", default=None,
                        help="also write JSONL/CSV series, summary and "
                             "Perfetto trace into DIR")
    args = parser.parse_args(argv)

    obs = Observability(profile=True)
    result = _transfer(args, obs)
    if result is None:
        return 2
    print(f"{args.scenario} x{args.receivers} {args.protocol} "
          f"{args.nbytes} bytes: ok={result.ok} "
          f"throughput={result.throughput_mbps:.2f} Mbit/s "
          f"duration={result.duration_us / 1e6:.3f} s\n")
    print(obs.summary())
    if args.metrics_out and not _write_artifacts(
            obs, args.metrics_out, args.scenario, spaced=True):
        return 2
    return 0 if result.ok else 1


# -- health subcommand family -------------------------------------------

def _run_health_report(argv) -> int:
    """``health report lan|wan|chaos``: one bare transfer, then a read
    of its protocol health.  With ``--json`` stdout is the payload
    alone; status lines go to stderr.  Exit 0 = the run delivered,
    1 = it failed, 2 = unusable input.  The gated pinned runs are the
    ``protocol-health`` experiment.
    """
    from repro.obs.health import payload as health_payload, summary_tables
    from repro.stats.report import format_table

    parser = argparse.ArgumentParser(
        prog="hrmc-experiments health report",
        description="Run one transfer and print its protocol health: "
                    "the NAK-suppression ledger, implosion/repair "
                    "economics and recovery-lag tables.")
    _scenario_args(parser)
    parser.add_argument("--json", action="store_true",
                        help="emit the health payload as JSON instead "
                             "of tables")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="also write the health payload as JSON")
    args = parser.parse_args(argv)

    result = _transfer(args)
    if result is None:
        return 2
    payload = health_payload(result)
    tables = summary_tables(payload)

    doc = json.dumps(payload, indent=2, sort_keys=True)
    status = sys.stderr if args.json else sys.stdout
    if args.json:
        print(doc)
    else:
        print(f"{args.scenario} x{args.receivers} {args.protocol} "
              f"{args.nbytes} bytes: ok={result.ok} "
              f"throughput={result.throughput_mbps:.2f} Mbit/s\n")
        for title, headers, rows in tables:
            print(format_table(title, headers, rows))
            print()
    if args.out and not _write_file("health payload", args.out, doc,
                                    status):
        return 2
    return 0 if result.ok else 1


#: the subcommands, by their first one or two words
_COMMANDS = {
    "report": _run_report, "fleet": _run_fleet,
    "health report": _run_health_report,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    for words in (2, 1):
        command = _COMMANDS.get(" ".join(argv[:words]))
        if command is not None:
            return command(argv[words:])
    if argv and argv[0] == "health":
        print("usage: hrmc-experiments health {report} ...",
              file=sys.stderr)
        return 2
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
    parser.add_argument("--chaos-seed", type=int, default=None, metavar="N",
                        help="run one chaos transfer with a seed-random "
                             "fault plan and the invariant checker on")
    parser.add_argument("--fault-plan", metavar="FILE", default=None,
                        help="run one chaos transfer driven by a saved "
                             "FaultPlan JSON file")
    parser.add_argument("--receivers", type=int, default=3,
                        help="receiver count for --chaos-seed/--fault-plan")
    parser.add_argument("--nbytes", type=int, default=250_000,
                        help="transfer size for --chaos-seed/--fault-plan")
    parser.add_argument("--metrics-out", metavar="DIR", default=None,
                        help="attach the observability layer to the "
                             "chaos run and write metric series, summary "
                             "and Perfetto trace into DIR")
    args = parser.parse_args(argv)

    if args.chaos_seed is not None or args.fault_plan:
        return _run_chaos(args)

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
