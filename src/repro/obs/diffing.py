"""Run-divergence diffing: align two runs, find where they first split.

"Seed 7 is slower than seed 6" is not an answer; *which packet went a
different way, and why* is.  :func:`diff_runs` loads the packet traces
(and, when present, the causal lineages) two runs wrote into their
artifact directories, aligns the event streams, and reports the first
**causally significant** divergence: the first position where the
structural identity of an event -- ``(host, direction, type, seq,
length, tries, flags)`` -- differs.  Pure timing drift (same event
sequence, shifted clocks) is tracked separately and reported as such,
because two runs that do the same things at slightly different times
have not diverged causally.

The alignment is positional rather than an edit-distance match: runs
under comparison share a harness and differ in one variable (seed,
plan, code version), so their prefixes are identical up to the first
causal split -- and everything after that point is downstream of it,
which is precisely why only the *first* divergence is worth a detailed
report (with each side's lineage chain, when lineage files exist).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.causal import load_lineage, walk_chain
from repro.obs.diag import format_chain
from repro.trace.tracer import TraceEvent, load_trace, trace_meta

__all__ = ["RunArtifacts", "DiffResult", "load_run", "diff_runs"]


#: structural identity of a trace event -- everything except its time
def _key(ev: TraceEvent) -> tuple:
    return (ev.host, ev.direction, ev.ptype, ev.seq, ev.length,
            ev.tries, ev.flags)


@dataclass
class RunArtifacts:
    """One run's loaded artifacts (see :func:`load_run`)."""

    path: str
    trace: list[TraceEvent]
    trace_truncated: bool = False
    lineage: dict = field(default_factory=dict)   # eid -> CauseNode
    lineage_meta: dict = field(default_factory=dict)

    def describe(self) -> str:
        bits = [f"{len(self.trace)} events"]
        if self.trace_truncated:
            bits.append("trace truncated")
        if self.lineage:
            bits.append(f"{len(self.lineage)} lineage nodes")
        return f"{self.path} ({', '.join(bits)})"


@dataclass
class DiffResult:
    """Outcome of aligning two runs."""

    run_a: RunArtifacts
    run_b: RunArtifacts
    divergence_index: Optional[int] = None    # position of first split
    event_a: Optional[TraceEvent] = None      # None = side exhausted
    event_b: Optional[TraceEvent] = None
    lineage_a: list[str] = field(default_factory=list)
    lineage_b: list[str] = field(default_factory=list)
    common_prefix: int = 0
    max_time_drift_us: int = 0
    first_drift_index: Optional[int] = None

    @property
    def diverged(self) -> bool:
        return self.divergence_index is not None

    def render(self) -> str:
        out = [f"runA: {self.run_a.describe()}",
               f"runB: {self.run_b.describe()}"]
        if not self.diverged:
            out.append(f"no causal divergence: {self.common_prefix} "
                       f"events align")
            if self.max_time_drift_us:
                out.append(f"timing drift only: first at event "
                           f"#{self.first_drift_index}, max "
                           f"{self.max_time_drift_us} us")
            else:
                out.append("traces are identical (timing included)")
            return "\n".join(out)
        out.append(f"first causal divergence at event "
                   f"#{self.divergence_index} "
                   f"(after {self.common_prefix} aligned events):")
        out.append(f"  A: {_fmt_event(self.event_a)}")
        if self.lineage_a:
            out.extend(f"     {ln}" for ln in self.lineage_a)
        out.append(f"  B: {_fmt_event(self.event_b)}")
        if self.lineage_b:
            out.extend(f"     {ln}" for ln in self.lineage_b)
        return "\n".join(out)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def _fmt_event(ev: Optional[TraceEvent]) -> str:
    if ev is None:
        return "<run ended: no more events on this side>"
    return (f"t={ev.t_us} {ev.direction} {ev.type_name} seq={ev.seq} "
            f"len={ev.length} tries={ev.tries} @ {ev.host}")


def load_run(path: str) -> RunArtifacts:
    """Load a run directory (or a bare ``*.trace.jsonl`` file).

    A run directory is whatever ``--lineage --metrics-out`` produced
    (``--chaos-seed N --metrics-out`` implies lineage): it must
    contain one ``*.trace.jsonl``; ``*.lineage.jsonl`` is optional and
    enables per-side lineage in the divergence report.  Raises
    ``ValueError`` with a one-line reason for anything unusable.
    """
    if os.path.isfile(path):
        trace_path, lineage_path = path, None
        base = path[:-len(".trace.jsonl")] if \
            path.endswith(".trace.jsonl") else None
        if base and os.path.isfile(base + ".lineage.jsonl"):
            lineage_path = base + ".lineage.jsonl"
    elif os.path.isdir(path):
        traces = sorted(f for f in os.listdir(path)
                        if f.endswith(".trace.jsonl"))
        if not traces:
            raise ValueError(f"no *.trace.jsonl in {path!r} -- was the "
                             "run made with --lineage --metrics-out?")
        trace_path = os.path.join(path, traces[0])
        lineage_path = trace_path[:-len(".trace.jsonl")] + ".lineage.jsonl"
        if not os.path.isfile(lineage_path):
            lineage_path = None
    else:
        raise ValueError(f"run {path!r} not found")

    try:
        trace = load_trace(trace_path)
        meta = trace_meta(trace_path)
    except Exception as exc:
        raise ValueError(f"corrupt trace file {trace_path!r}: {exc}") \
            from None
    run = RunArtifacts(path=path, trace=trace,
                       trace_truncated=bool(meta and meta.get("truncated")))
    if lineage_path is not None:
        run.lineage, run.lineage_meta = load_lineage(lineage_path)
    return run


def diff_runs(a: "RunArtifacts | str", b: "RunArtifacts | str",
              *, max_drift_report: bool = True) -> DiffResult:
    """Align two runs and locate their first causal divergence."""
    run_a = a if isinstance(a, RunArtifacts) else load_run(a)
    run_b = b if isinstance(b, RunArtifacts) else load_run(b)
    result = DiffResult(run_a, run_b)

    n = min(len(run_a.trace), len(run_b.trace))
    for i in range(n):
        ev_a, ev_b = run_a.trace[i], run_b.trace[i]
        if _key(ev_a) != _key(ev_b):
            _fill_divergence(result, i, ev_a, ev_b)
            return result
        if ev_a.t_us != ev_b.t_us:
            drift = abs(ev_a.t_us - ev_b.t_us)
            if result.first_drift_index is None:
                result.first_drift_index = i
            if drift > result.max_time_drift_us:
                result.max_time_drift_us = drift
    result.common_prefix = n
    if len(run_a.trace) != len(run_b.trace):
        # one run kept going after the other finished: that tail *is*
        # the divergence (e.g. extra recovery rounds under a worse seed)
        ev_a = run_a.trace[n] if len(run_a.trace) > n else None
        ev_b = run_b.trace[n] if len(run_b.trace) > n else None
        _fill_divergence(result, n, ev_a, ev_b)
    return result


def _fill_divergence(result: DiffResult, i: int,
                     ev_a: Optional[TraceEvent],
                     ev_b: Optional[TraceEvent]) -> None:
    result.divergence_index = i
    result.common_prefix = i
    result.event_a = ev_a
    result.event_b = ev_b
    result.lineage_a = _lineage_of(result.run_a, ev_a)
    result.lineage_b = _lineage_of(result.run_b, ev_b)


def _lineage_of(run: RunArtifacts, ev: Optional[TraceEvent]) -> list[str]:
    """The causal chain behind a trace event, matched against the run's
    saved lineage by structural identity (kind/host/seq/tries) at the
    nearest time."""
    if ev is None or not run.lineage:
        return []
    best = None
    for node in run.lineage.values():
        if (node.kind == ev.direction and node.host == ev.host
                and node.seq == ev.seq and node.tries == ev.tries):
            if best is None or \
                    abs(node.t_us - ev.t_us) < abs(best.t_us - ev.t_us):
                best = node
    if best is None:
        return []
    chain, truncated = walk_chain(run.lineage, best)
    return format_chain(chain, truncated)
