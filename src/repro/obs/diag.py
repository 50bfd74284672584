"""Root-cause diagnosis over the causal DAG.

:class:`Diagnoser` answers the questions a protocol engineer actually
asks when a run misbehaves:

* :meth:`~Diagnoser.why` -- why did byte ``seq`` need recovery?  Walks
  backwards from the losses and the final delivery to the originating
  drop, fault-plan action or timer.
* :meth:`~Diagnoser.explain_worst` -- which recovery episodes cost the
  most, and what chain of events produced each?
* :meth:`~Diagnoser.why_stalled` -- the run stopped making progress:
  what was the frontier of pending events, and what lineage led there?

:class:`Watchdog` supplies the last answer *mid-run*: it rides the
observability scrape loop (it is deliberately passive -- a
self-scheduling watchdog and the pending-gated scrape loop would keep
each other alive forever) and compares a progress signature (receiver
``rcv_nxt`` values + sender ``snd_nxt``) between scrapes.  When the
signature freezes for ``stall_after_us`` of simulated time while events
are still being processed, it snapshots the frontier of pending engine
events -- callback site, due time, and the causal chain that scheduled
each -- which is exactly the state one wants when debugging a livelock
(events fire forever, nothing advances) or a stall (a timer chain keeps
the run alive without making progress).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.obs.causal import CauseNode, LineageRecorder
from repro.obs.profiler import site_of

__all__ = ["Diagnoser", "Watchdog", "WhyReport", "StallReport",
           "format_chain"]


def format_chain(chain: list[CauseNode], truncated: bool) -> list[str]:
    """Render a backward walk, collapsing runs of identical periodic
    nodes (e.g. 14 consecutive ``timeout:transmit`` re-arms) into one
    line -- the repetition carries no diagnostic information."""
    lines: list[str] = []
    i = 0
    while i < len(chain):
        node = chain[i]
        j = i
        while (j + 1 < len(chain)
               and chain[j + 1].kind == node.kind
               and chain[j + 1].what == node.what
               and chain[j + 1].host == node.host):
            j += 1
        line = f"t={node.t_us:>10}  {node.label()}"
        if j > i:
            line += f"  (x{j - i + 1}, back to t={chain[j].t_us})"
        lines.append(line)
        i = j + 1
    if truncated:
        lines.append("          ... (lineage truncated: ring-pruned or "
                     "depth limit)")
    return lines


@dataclass
class WhyReport:
    """The answer to ``why(seq)``: every recorded loss of that byte
    range (with the fault action to blame, when one was armed) and the
    causal chain of its eventual recovery."""

    seq: int
    found: bool
    losses: list[tuple[CauseNode, Optional[CauseNode]]] \
        = field(default_factory=list)      # (drop node, blamed fault)
    deliveries: list[CauseNode] = field(default_factory=list)
    chains: list[tuple[str, list[str]]] = field(default_factory=list)
    note: str = ""

    def render(self) -> str:
        out = [f"why seq={self.seq}:"]
        if not self.found:
            out.append(f"  {self.note or 'no event covering this byte'}")
            return "\n".join(out)
        if self.losses:
            out.append(f"  lost {len(self.losses)} time(s):")
            for drop, fault in self.losses:
                line = f"    t={drop.t_us:>10}  {drop.label()}"
                if fault is not None:
                    line += f"  <- blamed on {fault.label()}"
                out.append(line)
        elif any(d.tries > 1 and any(e.tries <= 1 and e.host == d.host
                                     for e in self.deliveries)
                 for d in self.deliveries):
            out.append("  no drop of this byte recorded: the first copy "
                       "arrived, but a NAK range spanning a neighbouring "
                       "loss re-requested it")
        else:
            out.append("  no loss recorded (delivered first try, or the "
                       "drop happened before lineage attached)")
        for title, lines in self.chains:
            out.append(f"  {title}:")
            out.extend(f"    {ln}" for ln in lines)
        if self.note:
            out.append(f"  note: {self.note}")
        return "\n".join(out)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()

    def root(self) -> Optional[CauseNode]:
        """The originating event: the blamed fault of the first loss if
        one exists, else the first loss itself."""
        if not self.losses:
            return None
        drop, fault = self.losses[0]
        return fault if fault is not None else drop


@dataclass
class StallReport:
    """Snapshot taken when simulated progress froze mid-run."""

    detected_at_us: int
    frozen_since_us: int
    signature: tuple
    pending_events: int
    frontier: list[tuple[int, str, list[str]]] \
        = field(default_factory=list)   # (due_us, callback site, chain)

    @property
    def stalled_for_us(self) -> int:
        return self.detected_at_us - self.frozen_since_us

    def render(self) -> str:
        out = [f"stall detected at t={self.detected_at_us}: no transport "
               f"progress since t={self.frozen_since_us} "
               f"({self.stalled_for_us} us) with "
               f"{self.pending_events} event(s) pending"]
        out.append("  frontier of pending events:")
        for due, site, chain in self.frontier:
            out.append(f"    due t={due:>10}  {site}")
            out.extend(f"      {ln}" for ln in chain)
        return "\n".join(out)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


class Watchdog:
    """Simulated-time stall/livelock detector (see module docstring).

    ``progress_fn`` returns a comparable signature of transport
    progress; :meth:`check` is called from the observability scrape
    tick.  One report is produced per stall episode (re-arming only
    after progress resumes); with the run's ``lineage`` recorder, each
    pending entry in it carries the causal chain that scheduled it.
    """

    def __init__(self, sim, progress_fn: Callable[[], tuple], *,
                 lineage: Optional[LineageRecorder] = None,
                 stall_after_us: int = 2_000_000, frontier_limit: int = 12):
        self._sim = sim
        self._lineage = lineage
        self._progress_fn = progress_fn
        self.stall_after_us = int(stall_after_us)
        self.frontier_limit = int(frontier_limit)
        self._last_sig: Optional[tuple] = None
        self._frozen_since = 0
        self._tripped = False
        self.reports: list[StallReport] = []

    def check(self, now_us: int) -> Optional[StallReport]:
        sig = self._progress_fn()
        if sig != self._last_sig:
            self._last_sig = sig
            self._frozen_since = now_us
            self._tripped = False
            return None
        if (not self._tripped
                and now_us - self._frozen_since >= self.stall_after_us
                and self._sim.pending() > 0):
            self._tripped = True
            report = self._snapshot(now_us, sig)
            self.reports.append(report)
            return report
        return None

    def _snapshot(self, now_us: int, sig: tuple) -> StallReport:
        lineage = self._lineage
        frontier: list[tuple[int, str, list[str]]] = []
        for when, _, callback, _, cause in \
                self._sim.pending_entries(self.frontier_limit):
            chain_lines: list[str] = []
            if lineage is not None and cause:
                chain, trunc = lineage.chain(cause)
                chain_lines = format_chain(chain, trunc)
            frontier.append((when, site_of(callback), chain_lines))
        return StallReport(now_us, self._frozen_since, sig,
                           self._sim.pending(), frontier)


class Diagnoser:
    """Query layer over a run's :class:`LineageRecorder`."""

    def __init__(self, lineage: LineageRecorder, *,
                 spans=None, watchdog: Optional[Watchdog] = None):
        self.lineage = lineage
        self.spans = spans
        self.watchdog = watchdog

    # -- why(seq) -------------------------------------------------------

    def why(self, seq: int, host: Optional[str] = None) -> WhyReport:
        """Explain the history of byte ``seq``: every recorded drop of a
        segment covering it (with the fault-plan action to blame when a
        fault armed the dropping component) and the causal chain of the
        final delivery at ``host`` (when ``host`` is None: the
        most-retried delivery at a receiver that lost the byte, or
        anywhere if only the fabric lost it)."""
        lin = self.lineage
        report = WhyReport(seq=seq, found=False)

        for drop in lin.drops_covering(seq):
            # with a host filter, keep that host's drops plus fabric
            # drops (links/pipes/routers, whose names are not IPs) --
            # a correlated router loss hurts this receiver too
            if host is not None and drop.host != host and \
                    drop.host[:1].isdigit():
                continue
            fault = lin.node(drop.blame) if drop.blame else None
            report.losses.append((drop, fault))

        deliveries = lin.find(kind="rx", what="DATA", host=host,
                              covering=seq)
        report.deliveries = deliveries
        if not deliveries and not report.losses:
            report.note = ("no rx/drop event covers this byte (pruned, "
                           "never sent, or seq out of range)")
            return report
        report.found = True

        for drop, fault in report.losses:
            chain, trunc = lin.chain(drop)
            report.chains.append(
                (f"loss at t={drop.t_us} ({drop.what}@{drop.host})",
                 format_chain(chain, trunc)))

        if deliveries:
            # a multicast repair reaches every member at once: show it at
            # a receiver that lost the byte, not the first one it reached
            lost_at = {drop.host for drop, _ in report.losses
                       if drop.host[:1].isdigit()}
            final = max([d for d in deliveries if d.host in lost_at]
                        or deliveries, key=lambda n: (n.tries, n.t_us))
            chain, trunc = lin.chain(final)
            what = "recovery" if final.tries > 1 else "delivery"
            report.chains.append(
                (f"{what} at t={final.t_us} ({final.host})",
                 format_chain(chain, trunc)))
        elif report.losses:
            report.note = "never delivered (still lost at end of capture)"
        return report

    # -- explain_worst(k) ----------------------------------------------

    def explain_worst(self, k: int = 3) -> list[tuple[object, WhyReport]]:
        """The ``k`` longest NAK->repair recovery episodes (from the
        span collector) with the causal chain behind each.  Returns
        ``[(span, WhyReport), ...]`` slowest first."""
        if self.spans is None:
            return []
        recoveries = [s for s in self.spans.spans
                      if s.cat == "recovery" and s.end_us is not None]
        recoveries.sort(key=lambda s: s.dur_us, reverse=True)
        out = []
        for span in recoveries[:max(0, k)]:
            # recovery spans are named "repair@<range start>"
            try:
                seq = int(span.name.split("@", 1)[1])
            except (IndexError, ValueError):
                continue
            out.append((span, self.why(seq, host=span.host)))
        return out

    # -- why_stalled() --------------------------------------------------

    def why_stalled(self) -> Optional[StallReport]:
        """The most recent watchdog stall report, or ``None`` if the
        run never froze."""
        if self.watchdog is None or not self.watchdog.reports:
            return None
        return self.watchdog.reports[-1]
