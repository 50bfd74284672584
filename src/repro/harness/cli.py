"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    hrmc-experiments --list
    hrmc-experiments fig10 fig13
    hrmc-experiments --all --parallel 4
    hrmc-experiments --all --scale full --parallel 8 --cache-stats s.json
    hrmc-experiments fig13 --refresh
    hrmc-experiments fleet status
    hrmc-experiments fleet prune
    hrmc-experiments --chaos-seed 10
    hrmc-experiments --fault-plan plan.json --metrics-out out/
    hrmc-experiments report lan --receivers 5 --metrics-out out/
    hrmc-experiments report wan --lineage --metrics-out out/
    hrmc-experiments report wan --from out/
    hrmc-experiments why wan --seq 58401 --seed 21
    hrmc-experiments diff out/runA out/runB
    hrmc-experiments perf profile lan
    hrmc-experiments health report wan --bounds HEALTH_BOUNDS.json
    hrmc-experiments health sweep --experiment fig14

(or ``python -m repro.harness.cli``).  Experiment runs go through the
fleet (:mod:`repro.fleet`): specs are planned, served from the
content-addressed cache under ``--cache-dir`` (default
``.hrmc-cache``), and misses are executed -- across ``--parallel N``
worker processes when asked.  Report bodies go to stdout and are
byte-identical regardless of worker count or cache temperature; timing,
progress and cache accounting go to stderr (``--cache-stats FILE``
saves the accounting as JSON).  ``--no-cache`` runs without touching
the cache; ``--refresh`` re-executes and overwrites cached entries.

``fleet status`` summarizes the cache directory (entries, freshness
against the current code fingerprint, bytes); ``fleet prune`` deletes
entries the current code can no longer use.

``--chaos-seed``/``--fault-plan``
run one fault-injected transfer with the invariant checker attached and
print what happened (see :mod:`repro.faults`).  ``--metrics-out DIR``
additionally attaches the observability layer (:mod:`repro.obs`) and
writes its artifacts -- JSONL/CSV metric series, a text summary, a
Perfetto-loadable trace, and (with lineage) the packet trace + causal
DAG -- into ``DIR``.

Subcommands:

* ``report lan|wan|chaos`` runs one observed transfer of a canned
  scenario and prints the observability summary; ``--from DIR``
  re-prints a previously written artifact directory's summary without
  running anything.
* ``why lan|wan|chaos`` runs the scenario with causal lineage enabled
  and answers "why did sequence N need recovery?" (``--seq N``) or
  explains the worst recovery episodes (default).
* ``diff RUN_A RUN_B`` aligns two artifact directories (written by
  ``report --lineage --metrics-out``) and reports the first causally
  significant divergence.  Exit status: 0 = runs align,
  1 = diverged, 2 = unusable input.
* ``perf profile lan|wan|chaos`` runs one transfer under the engine
  profiler and prints its event-class tax table
  (:mod:`repro.obs.perf`).
* ``health report lan|wan|chaos`` runs one transfer and reads its
  protocol health (:mod:`repro.obs.health`): NAK-suppression ledger,
  feedback-implosion index, repair economics and recovery-lag
  distributions; ``--bounds`` gates effectiveness /
  redundancy against the committed ``HEALTH_BOUNDS.json`` (exit 0 =
  healthy, 1 = violated, 2 = unusable).  ``health sweep`` runs a
  fleet grid over group sizes and fits scaling laws
  (:mod:`repro.stats.scaling`) -- the paper's §5.2 flat-feedback
  claim as a fitted exponent -- with per-cell anomaly flags.
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
from repro.harness.inventory import INVENTORY, inventory_rows
from repro.harness.runner import run_transfer
from repro.obs.observer import Observability
from repro.trace.tracer import PacketTracer, trace_meta
from repro.workloads.groups import expand_test_case
from repro.workloads.scenarios import build_chaos, build_lan, build_wan

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
    """Run one fault-injected transfer and report what happened."""
    from repro.faults.plan import FaultPlan
    from repro.harness.experiments import chaos_config

    if args.fault_plan:
        try:
            plan = FaultPlan.load(args.fault_plan)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load fault plan {args.fault_plan!r}: {exc}",
                  file=sys.stderr)
            return 2
        scenario = build_lan(args.receivers, 10e6, seed=plan.seed)
        scenario.fault_plan = plan
    else:
        scenario = build_chaos(args.receivers, 10e6, seed=args.chaos_seed,
                               horizon_us=1_000_000)
        plan = scenario.fault_plan
    print(plan.describe())
    obs = tracer = None
    if args.metrics_out:
        obs = Observability(profile=True, lineage=True)
        tracer = PacketTracer()
    try:
        result = run_transfer(scenario, protocol="hrmc", nbytes=args.nbytes,
                              sndbuf=128 * 1024, cfg=chaos_config(),
                              invariants=True, max_sim_s=120, obs=obs,
                              tracer=tracer)
    except ValueError as exc:  # e.g. plan targets a missing receiver
        print(f"cannot run fault plan: {exc}", file=sys.stderr)
        return 2
    if obs is not None:
        try:
            paths = obs.write_artifacts(args.metrics_out, prefix="chaos")
        except OSError as exc:
            print(f"cannot write artifacts to {args.metrics_out!r}: {exc}",
                  file=sys.stderr)
            return 2
        for name, path in paths.items():
            print(f"wrote {name}: {path}")
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


def _build_scenario(args):
    bw = args.bandwidth * 1e6
    if args.scenario == "lan":
        scenario = build_lan(args.receivers, bw, seed=args.seed)
    elif args.scenario == "wan":
        specs = expand_test_case(args.wan_test, args.receivers)
        scenario = build_wan(specs, bw, seed=args.seed)
    else:
        scenario = build_chaos(args.receivers, bw, seed=args.seed,
                               horizon_us=1_000_000, allow_crash=False)
    kwargs = {}
    if args.scenario == "chaos":
        from repro.harness.experiments import chaos_config
        kwargs = {"cfg": chaos_config(), "invariants": True,
                  "sndbuf": 128 * 1024}
    if getattr(args, "sndbuf", None):
        kwargs["sndbuf"] = args.sndbuf
    return scenario, kwargs


def _transfer(args, obs=None, tracer=None):
    """Run one transfer of the canned scenario ``args`` names: the run
    behind ``report``, ``why``, ``perf profile`` and ``health report``."""
    scenario, kwargs = _build_scenario(args)
    return run_transfer(scenario, nbytes=args.nbytes,
                        protocol=args.protocol, obs=obs, max_sim_s=300,
                        tracer=tracer, **kwargs)


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

def _report_offline(args) -> int:
    """``report --from DIR``: re-print the observability summary of a
    previously written artifact directory; never runs a transfer."""
    outdir = getattr(args, "from")
    prefix = args.scenario
    summary_path = os.path.join(outdir, f"{prefix}.summary.txt")
    trace_path = os.path.join(outdir, f"{prefix}.trace.jsonl")

    try:
        with open(summary_path) as fh:
            summary = fh.read()
    except OSError as exc:
        print(f"cannot read metrics summary {summary_path!r}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    print(summary.rstrip("\n"))

    if os.path.exists(trace_path):
        try:
            meta = trace_meta(trace_path)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"cannot read trace {trace_path!r}: {exc}",
                  file=sys.stderr)
            return 2
        if meta and meta.get("truncated"):
            print(f"\nnote: packet trace is truncated "
                  f"({meta.get('dropped', '?')} events lost"
                  f"{' off the ring' if meta.get('ring') else ''})")
    return 0


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
                             "Perfetto trace into DIR; with --lineage, "
                             "the packet trace and causal lineage too")
    parser.add_argument("--lineage", action="store_true",
                        help="enable causal lineage tracing for the run")
    parser.add_argument("--from", metavar="DIR", default=None,
                        help="re-print a previously written artifact "
                             "directory instead of running a transfer")
    parser.add_argument("--no-profile", action="store_true",
                        help="skip the engine profiler")
    args = parser.parse_args(argv)

    if getattr(args, "from"):
        return _report_offline(args)

    obs = Observability(profile=not args.no_profile, lineage=args.lineage)
    tracer = PacketTracer() if args.lineage and args.metrics_out else None
    result = _transfer(args, obs, tracer)
    print(f"{args.scenario} x{args.receivers} {args.protocol} "
          f"{args.nbytes} bytes: ok={result.ok} "
          f"throughput={result.throughput_mbps:.2f} Mbit/s "
          f"duration={result.duration_us / 1e6:.3f} s\n")
    print(obs.summary())
    if args.metrics_out and not _write_artifacts(
            obs, args.metrics_out, args.scenario, spaced=True):
        return 2
    return 0 if result.ok else 1


# -- why subcommand -----------------------------------------------------

def _run_why(argv) -> int:
    """``why`` subcommand: run with lineage on, answer why(seq)."""
    parser = argparse.ArgumentParser(
        prog="hrmc-experiments why",
        description="Run a lineage-traced transfer and explain why a "
                    "sequence range needed recovery (--seq), or walk "
                    "the worst recovery episodes (default).")
    _scenario_args(parser)
    parser.add_argument("--seq", type=int, default=None, metavar="N",
                        help="explain this byte sequence number; "
                             "default: the worst recovery episodes")
    parser.add_argument("--worst", type=int, default=3, metavar="K",
                        help="how many worst episodes to explain "
                             "when --seq is not given (default 3)")
    parser.add_argument("--metrics-out", metavar="DIR", default=None,
                        help="also write the run's artifacts into DIR")
    args = parser.parse_args(argv)

    obs = Observability(profile=False, lineage=True)
    tracer = PacketTracer() if args.metrics_out else None
    result = _transfer(args, obs, tracer)
    print(f"{args.scenario} x{args.receivers} {args.protocol} "
          f"{args.nbytes} bytes: ok={result.ok} "
          f"duration={result.duration_us / 1e6:.3f} s\n")
    diag = obs.diag()
    if args.seq is not None:
        print(diag.why(args.seq).render())
    else:
        worst = diag.explain_worst(args.worst)
        if not worst:
            print("no recovery episodes: every packet arrived first try")
        for i, (span, why) in enumerate(worst):
            if i:
                print()
            print(f"-- recovery {span.name} @ {span.host}: "
                  f"{span.dur_us} us --")
            print(why.render())
    stall = diag.why_stalled()
    if stall is not None:
        print()
        print(stall.render())
    if args.metrics_out and not _write_artifacts(
            obs, args.metrics_out, args.scenario, spaced=True):
        return 2
    return 0 if result.ok else 1


# -- perf subcommand family ---------------------------------------------

def _run_perf_profile(argv) -> int:
    """``perf profile lan|wan|chaos``: one transfer under the engine
    profiler, then its event-class tax table."""
    from repro.stats.report import format_table

    parser = argparse.ArgumentParser(
        prog="hrmc-experiments perf profile",
        description="Run one transfer under the engine profiler and "
                    "print the event-class tax table.")
    _scenario_args(parser)
    parser.add_argument("--out", metavar="DIR", default="perf-artifacts",
                        help="artifact directory (default perf-artifacts)")
    args = parser.parse_args(argv)

    obs = Observability(profile=True)
    wall_t0 = time.perf_counter()
    result = _transfer(args, obs)
    wall_s = time.perf_counter() - wall_t0

    events_per_s = result.sim_events / wall_s if wall_s > 0 else 0.0
    print(f"{args.scenario} x{args.receivers} {args.protocol} "
          f"{args.nbytes} bytes: ok={result.ok} "
          f"sim_events={result.sim_events} wall={wall_s:.3f}s "
          f"events/s={events_per_s:.0f}\n")
    print(format_table(*obs.profiler.tax_table()))
    print()
    if not _write_artifacts(obs, args.out, args.scenario):
        return 2
    return 0 if result.ok else 1


def _run_perf(argv) -> int:
    """Dispatch the ``perf`` subcommand family."""
    if argv and argv[0] == "profile":
        return _run_perf_profile(argv[1:])
    print("usage: hrmc-experiments perf profile ...", file=sys.stderr)
    return 2


# -- health subcommand family -------------------------------------------

def _load_health_bounds(path: str, scenario: str):
    """Load the committed gate file; ``None`` means unusable input.

    The file maps scenario name (or ``"*"``) to ``metric_min`` /
    ``metric_max`` entries over the flat cell metrics of
    :func:`repro.stats.scaling.health_cell`.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read health bounds {path!r}: {exc}",
              file=sys.stderr)
        return None
    if not isinstance(doc, dict):
        print(f"health bounds {path!r}: expected a JSON object",
              file=sys.stderr)
        return None
    bounds = doc.get(scenario, doc.get("*"))
    error = _bounds_error(scenario, bounds)
    if error is not None:
        print(f"health bounds {path!r}: {error}", file=sys.stderr)
        return None
    return bounds


def _bounds_error(scenario: str, bounds) -> str | None:
    """Why a bounds entry cannot gate a run, or ``None`` if it can."""
    if bounds is None:
        return f"no entry for {scenario!r}"
    if not isinstance(bounds, dict):
        return f"entry for {scenario!r} is not an object"
    for key, limit in sorted(bounds.items()):
        if not key.endswith(("_min", "_max")):
            return f"bad bound key {key!r} (want metric_min / metric_max)"
        if not isinstance(limit, (int, float)) or isinstance(limit, bool):
            return f"bound {key!r}: limit {limit!r} is not a number"
    return None


def _check_health_bounds(bounds: dict, cell: dict) -> list[str]:
    """Gate a flat health cell against bounds that passed
    :func:`_bounds_error`; returns violation messages."""
    violations = []
    for key, limit in sorted(bounds.items()):
        metric, low = key[:-4], key.endswith("_min")
        value = cell.get(metric)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            violations.append(f"{metric}: absent from the health payload")
            continue
        if low and value < limit:
            violations.append(f"{metric}={value:g} below bound {limit:g}")
        elif not low and value > limit:
            violations.append(f"{metric}={value:g} above bound {limit:g}")
    return violations


def _run_health_report(argv) -> int:
    """``health report lan|wan|chaos``: one bare transfer, then a read
    of its protocol health, optionally gated against committed bounds.
    With ``--json`` stdout is the payload alone; status lines go to
    stderr.  Exit 0 = healthy, 1 = run failed or bound violated,
    2 = unusable input.
    """
    from repro.obs.health import payload as health_payload, summary_tables
    from repro.stats.report import format_table
    from repro.stats.scaling import health_cell

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
    parser.add_argument("--bounds", metavar="FILE", default=None,
                        help="gate against committed bounds "
                             "(HEALTH_BOUNDS.json)")
    args = parser.parse_args(argv)

    bounds = None
    if args.bounds:
        bounds = _load_health_bounds(args.bounds, args.scenario)
        if bounds is None:
            return 2

    result = _transfer(args)
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

    rc = 0 if result.ok else 1
    if bounds is not None:
        cell = health_cell(payload, label=args.scenario,
                           throughput_bps=result.throughput_bps)
        violations = _check_health_bounds(bounds, cell)
        for msg in violations:
            print(f"HEALTH BOUND VIOLATED: {msg}", file=sys.stderr)
        if violations:
            rc = 1
        else:
            print(f"health bounds ok ({len(bounds)} gates)", file=status)
    return rc


#: the per-cell columns of the sweep table, in print order
_SWEEP_COLUMNS = (
    "label", "group_size", "loss_rate", "throughput_mbps",
    "effectiveness", "naks_sent", "suppressed", "feedback_at_sender",
    "implosion_index", "redundant_ratio", "retrans_bytes",
    "mean_lag_us", "worst_lag_us", "unresolved",
)


def _run_health_sweep(argv) -> int:
    """``health sweep``: a fleet grid over group sizes with health
    payloads on, reduced to scaling-law fits and per-cell anomaly
    flags.  With ``--json`` stdout is the report alone; status lines
    go to stderr.  Exit 0 = clean, 1 = anomalies flagged or a cell
    failed, 2 = unusable input.
    """
    from repro.fleet import DEFAULT_CACHE_DIR, Fleet, FleetError, RunSpec
    from repro.stats.report import format_table
    from repro.stats.scaling import health_cell, sweep_report

    parser = argparse.ArgumentParser(
        prog="hrmc-experiments health sweep",
        description="Sweep the protocol-health observatory over a "
                    "group-size grid (Figure-14 axis) and report "
                    "scaling-law fits -- does sender-visible feedback "
                    "stay flat as the group grows? -- plus per-cell "
                    "anomaly flags against the sweep median.")
    parser.add_argument("--experiment", default="fig14",
                        choices=("fig14",),
                        help="sweep family (fig14: feedback vs group "
                             "size on the WAN test cases)")
    parser.add_argument("--grid", metavar="N,N,...", default="2,3,5,8",
                        help="group sizes to sweep (default 2,3,5,8)")
    parser.add_argument("--wan-test", type=int, default=2, metavar="N",
                        help="characteristic-group test case "
                             "(default 2)")
    parser.add_argument("--nbytes", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--bandwidth", type=float, default=10.0,
                        metavar="MBPS")
    parser.add_argument("--parallel", type=int, default=1, metavar="N")
    parser.add_argument("--cache-dir", metavar="DIR", default=None)
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--json", action="store_true",
                        help="emit the sweep report as JSON")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="also write the sweep report as JSON")
    args = parser.parse_args(argv)

    try:
        sizes = [int(tok) for tok in args.grid.split(",") if tok.strip()]
    except ValueError:
        print(f"bad --grid {args.grid!r}: want comma-separated ints",
              file=sys.stderr)
        return 2
    if not sizes or any(n < 1 for n in sizes):
        print(f"bad --grid {args.grid!r}: need positive group sizes",
              file=sys.stderr)
        return 2

    specs = [RunSpec.wan(test=args.wan_test, receivers=n,
                         bandwidth_bps=args.bandwidth * 1e6,
                         seed=args.seed, nbytes=args.nbytes,
                         sndbuf=128 * 1024, max_sim_s=300.0,
                         health=True, tag=f"health-n{n}")
             for n in sizes]
    fleet = Fleet(workers=args.parallel,
                  cache_dir=None if args.no_cache
                  else (args.cache_dir or DEFAULT_CACHE_DIR))
    try:
        results = fleet.run_specs(specs)
    except FleetError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    cells, failed = [], 0
    for n, spec in zip(sizes, specs):
        summary = results[spec.content_hash()]
        if not summary.ok:
            failed += 1
        cells.append(health_cell(
            summary.health, label=f"n={n}", group_size=n,
            throughput_bps=summary.throughput_bps))
    report = sweep_report(cells)

    doc = json.dumps(report, indent=2, sort_keys=True)
    status = sys.stderr if args.json else sys.stdout
    if args.json:
        print(doc)
    else:
        columns = [c for c in _SWEEP_COLUMNS
                   if any(c in cell for cell in cells)]
        print(format_table(
            f"health sweep ({args.experiment}, test {args.wan_test}, "
            f"seed {args.seed})", columns,
            [[cell.get(c, "-") for c in columns] for cell in cells]))
        print()
        if report["fits"]:
            print(format_table(
                "scaling-law fits (log-log least squares)",
                ["fit", "exponent", "coefficient", "r2", "n"],
                [[name, f["exponent"], f["coefficient"], f["r2"],
                  f["n"]]
                 for name, f in sorted(report["fits"].items())]))
        else:
            print("no scaling fits (grid too small or zero metrics)")
        print()
        if report["anomalies"]:
            for a in report["anomalies"]:
                print(f"ANOMALY {a['cell']}: {a['metric']}="
                      f"{a['value']:g} {a['direction']} vs sweep "
                      f"median {a['median']:g}")
        else:
            print("no per-cell anomalies")
    if args.out and not _write_file("sweep report", args.out, doc, status):
        return 2
    return 1 if (failed or report["anomalies"]) else 0


def _run_health(argv) -> int:
    """Dispatch the ``health`` subcommand family."""
    if argv and argv[0] == "report":
        return _run_health_report(argv[1:])
    if argv and argv[0] == "sweep":
        return _run_health_sweep(argv[1:])
    print("usage: hrmc-experiments health {report,sweep} ...",
          file=sys.stderr)
    return 2


# -- diff subcommand ----------------------------------------------------

def _run_diff(argv) -> int:
    """``diff`` subcommand: first causal divergence between two runs.

    Exit status: 0 = aligned, 1 = diverged, 2 = unusable input.
    """
    from repro.obs.diffing import diff_runs

    parser = argparse.ArgumentParser(
        prog="hrmc-experiments diff",
        description="Align two run artifact directories (or bare "
                    "*.trace.jsonl files) and report the first causally "
                    "significant divergence, with each side's lineage.")
    parser.add_argument("run_a", help="first run directory / trace file")
    parser.add_argument("run_b", help="second run directory / trace file")
    args = parser.parse_args(argv)

    try:
        result = diff_runs(args.run_a, args.run_b)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(result.render())
    return 1 if result.diverged else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "report":
        return _run_report(argv[1:])
    if argv and argv[0] == "why":
        return _run_why(argv[1:])
    if argv and argv[0] == "diff":
        return _run_diff(argv[1:])
    if argv and argv[0] == "fleet":
        return _run_fleet(argv[1:])
    if argv and argv[0] == "perf":
        return _run_perf(argv[1:])
    if argv and argv[0] == "health":
        return _run_health(argv[1:])
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
    parser.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="worker processes for the run fleet "
                             "(default 1 = serial in-process)")
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
                             "chaos run and write metric series, summary, "
                             "Perfetto trace, packet trace and causal "
                             "lineage into DIR")
    args = parser.parse_args(argv)

    if args.chaos_seed is not None or args.fault_plan:
        return _run_chaos(args)

    if args.list:
        rows = inventory_rows()
        wid = max(len(r[0]) for r in rows)
        wfig = max(len(r[1]) for r in rows)
        for exp_id, figure, bench in rows:
            print(f"{exp_id:<{wid}}  {figure:<{wfig}}  {bench}")
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
                         parallel=args.parallel, scale=args.scale,
                         elapsed_s=round(elapsed, 3))
            try:
                with open(args.cache_stats, "w") as fh:
                    json.dump(stats, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            except OSError as exc:
                print(f"cannot write {args.cache_stats!r}: "
                      f"{exc.strerror or exc}", file=sys.stderr)

    # stdout carries only the deterministic report bodies: identical
    # for serial, parallel and warm-cache executions (CI byte-compares)
    for exp_id in targets:
        report = reports[exp_id]
        if args.json:
            print(json.dumps({
                "id": report.exp_id,
                "title": report.title,
                "tables": [{"title": t, "headers": h, "rows": r}
                           for t, h, r in report.tables],
                "notes": report.notes,
            }, sort_keys=True))
        else:
            print(report.render())
            print()
        print(f"[{exp_id} done]", file=sys.stderr)
    print(f"[{len(targets)} experiment(s) in {elapsed:.1f}s]",
          file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
