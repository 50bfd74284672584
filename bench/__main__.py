"""python -m bench once|run|compare -- see bench/README.md."""

from __future__ import annotations

import argparse
import signal
import sys

from bench.workloads import WORKLOADS


def _timed_out(signum, frame):
    raise TimeoutError("bench once: over its 170 s budget")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)

    once = sub.add_parser(
        "once", help="one run of one workload; the last stdout line is "
                     "the result as one JSON object")
    once.add_argument("--workload", required=True, choices=list(WORKLOADS))
    once.add_argument("--seed", type=int, default=7)
    once.add_argument("--seconds", type=float, default=None,
                      help="how long to measure (default: run_seconds "
                           "of BENCHMARK.json)")
    once.add_argument("--trace", type=int, choices=(0, 1), default=0,
                      help="0: end-to-end metrics; 1: per-layer metrics")
    once.add_argument("--smoke", action="store_true")
    once.add_argument("--max-sim-s", type=float, default=None,
                      help="self-check only: cap simulated time so "
                           "receivers fail")

    run = sub.add_parser("run", help="every workload, in interleaved "
                                     "rounds, plus one traced run each")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--rounds", type=int, default=None,
                     help="default 7 (2 with --smoke)")
    run.add_argument("--smoke", action="store_true",
                     help="sizes / 50, 2 rounds; checks the plumbing, "
                          "measures nothing")
    run.add_argument("--workloads", default=",".join(WORKLOADS),
                     help="comma-separated subset")
    run.add_argument("--out", default=None, metavar="DIR",
                     help="result directory (default bench/out)")

    compare = sub.add_parser("compare", help="parent result vs change result")
    compare.add_argument("a")
    compare.add_argument("b")

    args = parser.parse_args(argv)
    if args.command == "compare":
        from bench.compare import compare as do_compare
        return do_compare(args.a, args.b)

    from bench import once as once_mod
    run_seconds = once_mod.spec()["run_seconds"]
    if args.command == "once":
        seconds = run_seconds if args.seconds is None else args.seconds
        # a child that hangs must not outlive the driver's 180 s limit
        signal.signal(signal.SIGALRM, _timed_out)
        signal.alarm(170)
        try:
            out = once_mod.run_once(args.workload, args.seed, seconds,
                                    bool(args.trace), args.smoke,
                                    args.max_sim_s)
        except (RuntimeError, TimeoutError) as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        finally:
            signal.alarm(0)
        print(once_mod.result_line(out))
        return 0 if out["correct"] else 1

    from bench.run import run as do_run
    names = args.workloads.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    rounds = args.rounds if args.rounds is not None \
        else (2 if args.smoke else 7)
    try:
        return do_run(names, args.seed, rounds, run_seconds, args.smoke,
                      args.out or once_mod.OUT)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
