"""The observability facade: wire metrics, spans and the profiler into
a scenario without perturbing it.

``Observability`` attaches read-only instruments to a built scenario:

* a **scrape process** that samples registered gauges (window
  occupancy, socket-buffer usage, repair-cache bytes, advertised rate,
  NAK/UPDATE/retransmission rates, engine queue depth, per-link
  utilisation) into time series every ``scrape_interval_us`` of
  simulated time,
* a **span collector** subscribed to the packet seam
  (packet-lifecycle latency histograms and protocol-phase spans),
* optionally the **engine profiler** (simulated-time and wall-clock
  attribution per callback site), and
* optionally the **causal recorder**, a second seam subscriber that
  also labels timer firings and process wake-ups.

The profiler and the recorder see the engine's events through its one
hook, ``Simulator.watch``: the recorder when lineage is on (it times
the firings under the profiler, if there is one), else the profiler.
A run has one watch, as it has one tracer; attaching a second raises.

Zero-perturbation guarantee: every gauge is a pure read, the span
collector never copies or mutates segments, and the scrape events only
interleave with -- never reorder -- protocol events (engine FIFO order
among same-time events is preserved, and no RNG stream is consumed).
A run with observability attached therefore produces a byte-identical
packet trace and final counters to an unobserved run; the regression
test in ``tests/obs`` holds this line.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

from repro.core.seq import seq_sub
from repro.obs.export import (summary_text, write_chrome_trace,
                              write_series_csv, write_series_jsonl)
from repro.obs.metrics import LATENCY_BOUNDS_US, MetricsRegistry
from repro.obs.profiler import SimProfiler
from repro.obs.spans import SpanCollector

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.tracer import PacketTracer
    from repro.workloads.scenarios import Scenario

__all__ = ["Observability"]


class Observability:
    """One observed run: construct, pass to ``run_transfer(obs=...)``.

    Parameters
    ----------
    scrape_interval_us:
        Simulated time between gauge samples (default 50 ms -- five
        jiffies, fine enough to see rate-control dynamics without
        bloating dumps).
    profile:
        Attach the engine profiler.  Its cost is its own work per
        engine event, so it weighs more the cheaper the bare run is:
        the benchmark's ``cli-observed-report`` transfer took 1.3x to
        1.5x its bare wall-clock time with it (``obs.overhead_ratio``,
        2-vCPU Xeon, Python 3.11).  Simulated behaviour is unaffected
        either way.
    latency_bounds:
        Histogram bucket edges for the packet-lifecycle spans.
    """

    def __init__(self, *, scrape_interval_us: int = 50_000,
                 profile: bool = False, lineage: bool = False,
                 lineage_max_nodes: int = 200_000,
                 stall_after_us: int = 2_000_000,
                 latency_bounds=LATENCY_BOUNDS_US):
        if scrape_interval_us <= 0:
            raise ValueError("scrape_interval_us must be positive")
        self.scrape_interval_us = int(scrape_interval_us)
        self.registry = MetricsRegistry()
        self.profiler: Optional[SimProfiler] = \
            SimProfiler() if profile else None
        self.spans: Optional[SpanCollector] = None
        self._latency_bounds = latency_bounds
        self._sim = None
        self.attached = False
        self.finalized_at_us: Optional[int] = None
        # causal lineage + diagnosis (repro.obs.causal / .diag): pure
        # bookkeeping riding the same attach, preserving the
        # zero-perturbation guarantee
        self.want_lineage = bool(lineage)
        self._lineage_max_nodes = int(lineage_max_nodes)
        self._stall_after_us = int(stall_after_us)
        self.lineage = None
        self.watchdog = None
        self.tracer = None

    # -- wiring ---------------------------------------------------------

    def attach(self, scenario: "Scenario", tracer: "PacketTracer", *,
               ssock=None, rsocks=()) -> "Observability":
        """Register gauges over the scenario's layers, subscribe the
        span collector (and the causal recorder) to the tracer's seam
        and start the scrape loop.  Call
        after sockets exist and before the simulation runs (the harness
        does this when given ``obs=``)."""
        if self.attached:
            raise RuntimeError("Observability instance already attached")
        sim = scenario.sim
        watches = self.profiler is not None or self.want_lineage
        if watches and sim.watch is not None:
            raise RuntimeError("the run already has a watch")
        self.attached = True
        self._sim = sim
        self.tracer = tracer
        reg = self.registry

        self.spans = SpanCollector(scenario.sender.addr,
                                   self._latency_bounds)
        tracer.subscribe(self.spans.on_packet)

        if self.want_lineage:
            from repro.obs.causal import LineageRecorder
            from repro.obs.diag import Watchdog
            self.lineage = LineageRecorder(
                sim, max_nodes=self._lineage_max_nodes,
                profiler=self.profiler)
            tracer.subscribe(self.lineage.on_packet)
            self.watchdog = Watchdog(
                sim, self._progress_signature(ssock, list(rsocks)),
                lineage=self.lineage, stall_after_us=self._stall_after_us)
        if watches:
            sim.watch = self.lineage or self.profiler

        # engine
        reg.gauge("engine.queue_depth", sim.pending)
        reg.rate_gauge("engine.events_per_s",
                       lambda: sim.events_processed)

        # sender endpoint (roles are created lazily at connect/join; a
        # gauge returning None simply skips the sample)
        if ssock is not None:
            t = ssock.transport
            reg.gauge("sender.sndbuf_used_bytes",
                      lambda: self._sock_bytes(t, "write_queue"))
            reg.gauge("sender.window_bytes", lambda: self._window_bytes(t))
            reg.gauge("sender.rate_adv_bps", lambda: self._rate_bps(t))
            reg.gauge("sender.members", lambda: self._members(t))
            stats = t.stats
            reg.rate_gauge("sender.naks_per_s", lambda: stats.naks_rcvd)
            reg.rate_gauge("sender.updates_per_s",
                           lambda: stats.updates_rcvd)
            reg.rate_gauge("sender.retrans_per_s",
                           lambda: stats.retrans_pkts)
            reg.rate_gauge("sender.data_bytes_per_s",
                           lambda: stats.data_bytes_sent)

        # receiver endpoints, aggregated (per-host series would explode
        # for the 100-receiver scaling scenarios)
        rsocks = list(rsocks)
        if rsocks:
            reg.gauge("recv.rcvbuf_used_bytes",
                      lambda: self._sum(rsocks, self._rcvbuf_used))
            reg.gauge("recv.repair_cache_bytes",
                      lambda: self._sum(rsocks, self._repair_cache))
            reg.gauge("recv.nak_ranges",
                      lambda: self._sum(rsocks, self._nak_ranges))

        # network fabric
        for name, medium in self._link_surfaces(scenario.network):
            bw = float(getattr(medium, "bandwidth_bps", 0.0) or
                       scenario.bandwidth_bps)
            reg.rate_gauge(f"link.{name}.util_pct",
                           (lambda m: lambda: m.bytes_carried)(medium),
                           unit="%", scale=800.0 / bw)
        reg.rate_gauge("net.drops_per_s",
                       lambda: sum(scenario.network.drop_summary()
                                   .values()))

        self._tick()   # scrape t=0, then self-schedule
        return self

    def _tick(self) -> None:
        self.registry.scrape(self._sim.now)
        if self.watchdog is not None:
            # passive mid-run stall detection: piggybacks on the scrape
            # tick instead of scheduling its own events (two
            # pending-gated loops would keep each other alive forever)
            self.watchdog.check(self._sim.now)
        # re-arm only while other work is scheduled: when the protocol
        # drains, the scrape loop stops instead of ticking to the run's
        # time horizon
        if self._sim.pending() > 0:
            self._sim.call_after(self.scrape_interval_us, self._tick)

    def finalize(self, now_us: int) -> None:
        """Final scrape and span close-out; the harness calls this when
        the simulation stops."""
        if self.finalized_at_us is not None:
            return
        self.finalized_at_us = now_us
        self.registry.scrape(now_us)
        if self.spans is not None:
            self.spans.finalize(now_us)

    @staticmethod
    def _progress_signature(ssock, rsocks):
        """A pure-read signature of transport progress for the
        watchdog: the sender's next-to-send plus every receiver's
        next-expected sequence.  Frozen signature + pending events =
        the run is burning simulated time without moving data."""
        def signature() -> tuple:
            parts = []
            sender = getattr(getattr(ssock, "transport", None),
                             "sender", None)
            parts.append(getattr(sender, "snd_nxt", None))
            for sock in rsocks:
                receiver = getattr(getattr(sock, "transport", None),
                                   "receiver", None)
                parts.append(getattr(receiver, "rcv_nxt", None))
            return tuple(parts)
        return signature

    def diag(self):
        """A :class:`~repro.obs.diag.Diagnoser` over this run's causal
        DAG (requires ``lineage=True``)."""
        if self.lineage is None:
            raise RuntimeError("Observability(lineage=True) required "
                               "for diagnosis")
        from repro.obs.diag import Diagnoser
        return Diagnoser(self.lineage, spans=self.spans,
                         watchdog=self.watchdog)

    # -- gauge helpers (pure reads, defensive against role lifecycles) --

    @staticmethod
    def _sock_bytes(transport, queue: str) -> Optional[int]:
        sock = getattr(transport, "sock", None)
        q = getattr(sock, queue, None)
        return None if q is None else q.bytes

    @staticmethod
    def _window_bytes(transport) -> Optional[int]:
        sender = getattr(transport, "sender", None)
        if sender is not None:
            return seq_sub(sender.snd_nxt, sender.snd_wnd)
        if hasattr(transport, "snd_nxt") and hasattr(transport, "snd_una"):
            return seq_sub(transport.snd_nxt, transport.snd_una)
        return None

    @staticmethod
    def _rate_bps(transport) -> Optional[int]:
        sender = getattr(transport, "sender", None)
        rate = getattr(sender, "rate", None)
        return None if rate is None else rate.rate_bps

    @staticmethod
    def _members(transport) -> Optional[int]:
        sender = getattr(transport, "sender", None)
        members = getattr(sender, "members", None)
        return None if members is None else len(members)

    @staticmethod
    def _sum(socks, fn) -> Optional[float]:
        values = [v for v in (fn(s.transport) for s in socks)
                  if v is not None]
        return sum(values) if values else None

    @staticmethod
    def _rcvbuf_used(transport) -> Optional[int]:
        sock = getattr(transport, "sock", None)
        return None if sock is None else sock.receive_queue.bytes

    @staticmethod
    def _repair_cache(transport) -> Optional[int]:
        receiver = getattr(transport, "receiver", None)
        return getattr(receiver, "_repair_cache_bytes", None)

    @staticmethod
    def _nak_ranges(transport) -> Optional[int]:
        receiver = getattr(transport, "receiver", None)
        naks = getattr(receiver, "naks", None)
        return None if naks is None else len(naks)

    @staticmethod
    def _link_surfaces(network) -> list[tuple[str, object]]:
        """Media worth a utilisation series: the LAN segment, or the
        WAN's per-group downlinks (per-receiver tail pipes would bloat
        scaling runs)."""
        out: list[tuple[str, object]] = []
        link = getattr(network, "link", None)
        if link is not None:
            out.append((link.name, link))
        for pipe in getattr(network, "_group_down", {}).values():
            out.append((pipe.name, pipe))
        return out

    # -- views / export -------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Latest value of every series (attached to
        :class:`~repro.faults.invariants.InvariantViolation`)."""
        snap = self.registry.snapshot()
        if self.spans is not None:
            for hist in self.spans.histograms():
                if hist.count:
                    snap[f"{hist.name}.p50"] = hist.quantile(0.5)
                    snap[f"{hist.name}.count"] = hist.count
        return snap

    def summary_tables(self) -> list[tuple[str, list, list]]:
        """(title, headers, rows) tables for harness reports."""
        tables = []
        rows = self.registry.summary_rows()
        if rows:
            tables.append(("observed metric series",
                           ["series", "samples", "min", "mean", "max",
                            "last"], rows))
        if self.spans is not None:
            hist_rows = [[h.name, h.count, round(h.mean, 0),
                          round(h.quantile(0.5), 0),
                          round(h.quantile(0.9), 0), round(h.max, 0)]
                         for h in self.spans.histograms() if h.count]
            if hist_rows:
                tables.append(("packet-lifecycle latency (us)",
                               ["histogram", "n", "mean", "p50", "p90",
                                "max"], hist_rows))
        if self.profiler is not None and self.profiler.events:
            tables.append(self.profiler.tax_table())
        return tables

    def summary(self) -> str:
        """The text timeline/summary (see :func:`repro.obs.export.summary_text`)."""
        return summary_text(self)

    def write_artifacts(self, outdir: str, *,
                        prefix: str = "run") -> dict[str, str]:
        """Write every export into ``outdir``: JSONL + CSV series, the
        Perfetto trace and the text summary; with lineage enabled also
        the packet trace + causal DAG (the inputs ``hrmc diff`` and
        ``hrmc why`` align).  Returns name -> path."""
        os.makedirs(outdir, exist_ok=True)
        paths = {
            "series_jsonl": os.path.join(outdir, f"{prefix}.series.jsonl"),
            "series_csv": os.path.join(outdir, f"{prefix}.series.csv"),
            "perfetto": os.path.join(outdir, f"{prefix}.perfetto.json"),
            "summary": os.path.join(outdir, f"{prefix}.summary.txt"),
        }
        write_series_jsonl(self.registry, paths["series_jsonl"])
        write_series_csv(self.registry, paths["series_csv"])
        write_chrome_trace(self, paths["perfetto"])
        with open(paths["summary"], "w") as fh:
            fh.write(self.summary())
            fh.write("\n")
        if self.tracer is not None and self.lineage is not None:
            paths["trace"] = os.path.join(outdir, f"{prefix}.trace.jsonl")
            self.tracer.save(paths["trace"])
            paths["lineage"] = os.path.join(outdir,
                                            f"{prefix}.lineage.jsonl")
            self.lineage.save(paths["lineage"])
        return paths
