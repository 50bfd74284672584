"""The observability facade: wire metric gauges (and, on request, the
profiler) into a scenario without perturbing it.

``Observability`` attaches read-only instruments to a built scenario:

* a **scrape process** that samples registered gauges (window
  occupancy, socket-buffer usage, repair-cache bytes, advertised rate,
  NAK/UPDATE/retransmission rates, engine queue depth, per-link
  utilisation) into time series every ``SCRAPE_INTERVAL_US`` of
  simulated time,
* optionally the **engine profiler** (simulated-time and wall-clock
  attribution per callback site).

It subscribes nothing to the packet seam, so an observed run with no
checker and no capture has no tap.  The profiler sees the engine's
events through its one hook, ``Simulator.watch``.  A run has one
watch, as it has one tracer; attaching a second raises.

Zero-perturbation guarantee: every gauge is a pure read, and the
scrape events only interleave with -- never reorder -- protocol events
(engine FIFO order among same-time events is preserved, and no RNG
stream is consumed).  A run with observability attached therefore
produces a byte-identical packet trace and final counters to an
unobserved run; the regression test in ``tests/obs`` holds this line.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

from repro.core.seq import seq_sub
from repro.obs.export import summary_text, write_series_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import SimProfiler

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.scenarios import Scenario

__all__ = ["Observability"]

#: simulated time between gauge samples: 50 ms, five jiffies -- fine
#: enough to see rate-control dynamics without bloating dumps
SCRAPE_INTERVAL_US = 50_000


class Observability:
    """One observed run: construct, pass to ``run_transfer(obs=...)``.

    Parameters
    ----------
    profile:
        Attach the engine profiler.  Its cost is its own work per
        engine event, so it weighs more the cheaper the bare run is:
        the benchmark's ``cli-observed-report`` transfer took 1.3x to
        1.5x its bare wall-clock time with it (``obs.overhead_ratio``,
        2-vCPU Xeon, Python 3.11).  Nothing in ``repro`` turns it on;
        the benchmark's overhead ratio does.  Simulated behaviour is
        unaffected either way.
    """

    def __init__(self, *, profile: bool = False):
        self.registry = MetricsRegistry()
        self.profiler: Optional[SimProfiler] = \
            SimProfiler() if profile else None
        self._sim = None
        self.attached = False
        self.finalized_at_us: Optional[int] = None

    # -- wiring ---------------------------------------------------------

    def attach(self, scenario: "Scenario", *,
               ssock=None, rsocks=()) -> "Observability":
        """Register gauges over the scenario's layers and start the
        scrape loop.  Call after sockets exist and before the
        simulation runs (the harness does this when given ``obs=``)."""
        if self.attached:
            raise RuntimeError("Observability instance already attached")
        sim = scenario.sim
        if self.profiler is not None:
            if sim.watch is not None:
                raise RuntimeError("the run already has a watch")
            sim.watch = self.profiler
        self.attached = True
        self._sim = sim
        reg = self.registry

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
            if hasattr(t, "sender"):   # the baselines never NAK
                reg.rate_gauge("sender.naks_per_s",
                               lambda: stats.naks_rcvd)
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
        # re-arm only while other work is scheduled: when the protocol
        # drains, the scrape loop stops instead of ticking to the run's
        # time horizon
        if self._sim.pending() > 0:
            self._sim.call_after(SCRAPE_INTERVAL_US, self._tick)

    def finalize(self, last_event_us: int) -> None:
        """Closing scrape when the run stops, 1 us after its last event
        fired: that event may be the scrape loop's own last tick, and a
        rate gauge needs an interval to close on."""
        if self.finalized_at_us is not None:
            return
        self.finalized_at_us = last_event_us + 1
        self.registry.scrape(self.finalized_at_us)

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
        """In-order queue plus the out-of-order segments parked in the
        receiver (H-RMC's role, or a baseline's reassembly buffer), as
        Linux charges both to ``sk_rmem_alloc``: the reader empties the
        first between scrapes, so on a lossy run the parked segments are
        what the receive buffer holds."""
        sock = getattr(transport, "sock", None)
        if sock is None:
            return None
        parking = getattr(transport, "receiver", None) or \
            getattr(transport, "rx", None)
        ooo = getattr(parking, "_ooo", None)
        parked = sum(skb.truesize for skb in ooo.values()) if ooo else 0
        return sock.receive_queue.bytes + parked

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
        return self.registry.snapshot()

    def summary_tables(self) -> list[tuple[str, list, list]]:
        """(title, headers, rows) tables for harness reports."""
        rows = self.registry.summary_rows()
        if not rows:
            return []
        return [("observed metric series",
                 ["series", "samples", "min", "mean", "max", "last"], rows)]

    def summary(self) -> str:
        """The metric-series table (see
        :func:`repro.obs.export.summary_text`)."""
        return summary_text(self.registry)

    def write_artifacts(self, outdir: str, *,
                        prefix: str = "run") -> dict[str, str]:
        """Write every export into ``outdir``: the JSONL series and the
        text summary.  Returns name -> path."""
        os.makedirs(outdir, exist_ok=True)
        paths = {
            "series_jsonl": os.path.join(outdir, f"{prefix}.series.jsonl"),
            "summary": os.path.join(outdir, f"{prefix}.summary.txt"),
        }
        write_series_jsonl(self.registry, paths["series_jsonl"])
        with open(paths["summary"], "w") as fh:
            fh.write(self.summary())
            fh.write("\n")
        return paths
