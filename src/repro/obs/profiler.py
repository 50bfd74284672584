"""The engine profiler: one table, read per callback site.

Installed as the run's watch (``Simulator.watch``), it runs every
firing through :meth:`SimProfiler.execute`, which adds three numbers to
the row of the callback's *function*:

* **events** -- firings (cancelled entries never reach ``execute`` and
  heap compaction only touches entries that will never fire, so counts
  equal the callbacks actually executed),
* **simulated time** -- how far the virtual clock advanced to reach
  each firing (what the simulation spends its virtual time waiting on),
* **wall time** -- how long the Python callback actually ran (where the
  simulator burns real CPU).

Nothing else happens per event.  Site labels (``nic.NetworkInterface.
_tx_done``) and the totals are folds over that table, computed when
someone reads them.  :class:`Observability` is the handle
``run_transfer(obs=...)`` takes to install one.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

__all__ = ["Observability", "SimProfiler", "SiteStats", "site_of"]


def site_of(callback: Callable) -> str:
    """Stable label for a callback site, e.g. ``nic.NetworkInterface._tx_done``."""
    fn = getattr(callback, "__func__", callback)
    module = getattr(fn, "__module__", "") or ""
    qualname = getattr(fn, "__qualname__", None) or repr(fn)
    # drop the common package prefix; keep the leaf module for context
    module = module.rsplit(".", 1)[-1]
    return f"{module}.{qualname}" if module else qualname


@dataclass
class SiteStats:
    """One row of the site view: a callback site's attribution."""

    events: int = 0
    sim_us: int = 0      # virtual-clock advance attributed to these firings
    wall_ns: int = 0     # real time spent inside the callbacks


class SimProfiler:
    """Engine profiler; install as ``Simulator.watch`` before running."""

    def __init__(self):
        # function -> [events, sim_us, wall_ns].  Keyed by the function
        # under a bound method (methods are re-bound per schedule; the
        # function is stable), so every timer's firing shares one row.
        self._rows: dict = {}

    def execute(self, callback: Callable, args: tuple,
                sim_dt_us: int) -> None:
        """Run ``callback(*args)`` under the profiler (called by the
        engine for every non-cancelled entry)."""
        try:
            row = self._rows[callback.__func__]
        except (AttributeError, KeyError):   # first firing, or no method
            row = self._rows.setdefault(
                getattr(callback, "__func__", callback), [0, 0, 0])
        t0 = perf_counter_ns()
        try:
            callback(*args)
        finally:
            row[2] += perf_counter_ns() - t0
            row[0] += 1
            row[1] += sim_dt_us

    # -- folds over the table -------------------------------------------

    @property
    def sites(self) -> dict[str, SiteStats]:
        """Attribution per callback site (module-qualified function)."""
        out: dict[str, SiteStats] = {}
        for fn, (events, sim_us, wall_ns) in self._rows.items():
            stats = out.setdefault(site_of(fn), SiteStats())
            stats.events += events
            stats.sim_us += sim_us
            stats.wall_ns += wall_ns
        return out

    @property
    def events(self) -> int:
        return sum(row[0] for row in self._rows.values())

    @property
    def wall_ns_total(self) -> int:
        return sum(row[2] for row in self._rows.values())

    # -- views ----------------------------------------------------------

    def events_per_sec(self) -> float:
        """Engine throughput: callbacks executed per wall-clock second
        of callback time (the engine's own loop overhead excluded)."""
        wall = self.wall_ns_total
        if wall <= 0:
            return 0.0
        return self.events * 1e9 / wall

    def top(self, n: int = 10) -> list[list]:
        """``n`` hottest sites by wall time as table rows
        ``[site, events, sim_ms, wall_ms, wall_share]``."""
        ranked = sorted(self.sites.items(),
                        key=lambda kv: (-kv[1].wall_ns, kv[0]))
        total_wall = self.wall_ns_total or 1
        return [[site, s.events, round(s.sim_us / 1000, 1),
                 round(s.wall_ns / 1e6, 2),
                 f"{100.0 * s.wall_ns / total_wall:.1f}%"]
                for site, s in ranked[:n]]


class Observability:
    """One profiled run: construct with ``profile=True``, pass to
    ``run_transfer(obs=...)``, then read :attr:`profiler`.

    The profiler's cost is its own work per engine event, so it weighs
    more the cheaper the bare run is: the benchmark's
    ``cli-observed-report`` transfer took 1.3x to 1.5x its bare
    wall-clock time with it (``obs.overhead_ratio``, 2-vCPU Xeon, Python
    3.11).  Nothing in ``repro`` builds one; the benchmark's overhead
    ratio does.  Simulated behaviour is unaffected.
    """

    def __init__(self, *, profile: bool):
        if not profile:
            raise ValueError("an observer is the engine profiler: "
                             "Observability(profile=True)")
        self.profiler = SimProfiler()
        self.attached = False

    def attach(self, scenario) -> "Observability":
        """Install the profiler as the run's watch (the harness does
        this when given ``obs=``).  A run has one watch, as it has one
        tracer, and an observer watches one run: either again raises."""
        if self.attached:
            raise RuntimeError("Observability instance already attached")
        sim = scenario.sim
        if sim.watch is not None:
            raise RuntimeError("the run already has a watch")
        sim.watch = self.profiler
        self.attached = True
        return self
