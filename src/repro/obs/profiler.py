"""The engine profiler: one table, every view folded from it when read.

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
_tx_done``), the event-class tax table (:mod:`repro.obs.perf.taxonomy`),
the totals and the coverage figure are all folds over that table,
computed when someone reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Optional

from repro.sim.timer import Timer

__all__ = ["SimProfiler", "SiteStats", "site_of"]

_TIMER_FIRE = Timer._fire


def site_of(callback: Callable) -> str:
    """Stable label for a callback site, e.g. ``nic.NetworkInterface._tx_done``."""
    fn = getattr(callback, "__func__", callback)
    module = getattr(fn, "__module__", "") or ""
    qualname = getattr(fn, "__qualname__", None) or repr(fn)
    # drop the common package prefix; keep the leaf module for context
    module = module.rsplit(".", 1)[-1]
    return f"{module}.{qualname}" if module else qualname


def _classify(callback: Callable, timer: Optional[str] = None) -> str:
    """Event class of a callback, or of the timer named ``timer``."""
    # imported on use: a run that never reads a class view never loads
    # the taxonomy
    from repro.obs.perf.taxonomy import classify, timer_class
    return classify(callback) if timer is None else timer_class(timer)


@dataclass
class SiteStats:
    """One row of a view: a site's or an event class's attribution."""

    events: int = 0
    sim_us: int = 0      # virtual-clock advance attributed to these firings
    wall_ns: int = 0     # real time spent inside the callbacks


class SimProfiler:
    """Engine profiler; install as ``Simulator.watch`` before running
    (or hand it to the lineage recorder, which is the watch then)."""

    #: the context entries capture: a profiler alone labels nothing
    current = 0

    def __init__(self):
        # function -> [events, sim_us, wall_ns].  Keyed by the function
        # under a bound method (methods are re-bound per schedule; the
        # function is stable).  A timer firing (Timer._fire: one
        # function, many timers) is keyed (function, timer name) instead
        # and never by the function alone, so execute() finds it through
        # _row() every time; the class view folds the name to its class.
        self._rows: dict = {}

    def execute(self, callback: Callable, args: tuple, cause: int,
                sim_dt_us: int) -> None:
        """Run ``callback(*args)`` under the profiler (called by the
        engine for every non-cancelled entry)."""
        try:
            row = self._rows[callback.__func__]
        except (AttributeError, KeyError):
            row = self._row(callback)
        t0 = perf_counter_ns()
        try:
            callback(*args)
        finally:
            row[2] += perf_counter_ns() - t0
            row[0] += 1
            row[1] += sim_dt_us

    def _row(self, callback: Callable) -> list:
        """The row of a callback ``execute`` did not find by function:
        a first firing, a callable that is not a bound method, or a
        timer firing, keyed with its timer's name."""
        key = getattr(callback, "__func__", callback)
        if key is _TIMER_FIRE:
            key = (key, callback.__self__.name)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = [0, 0, 0]
        return row

    # -- folds over the table -------------------------------------------

    def _fold(self, label_of: Callable) -> dict[str, SiteStats]:
        """``label_of(function, timer name or None)`` names the view row
        each table row is added to."""
        out: dict[str, SiteStats] = {}
        for key, (events, sim_us, wall_ns) in self._rows.items():
            fn, timer = key if type(key) is tuple else (key, None)
            stats = out.setdefault(label_of(fn, timer), SiteStats())
            stats.events += events
            stats.sim_us += sim_us
            stats.wall_ns += wall_ns
        return out

    @property
    def sites(self) -> dict[str, SiteStats]:
        """Attribution per callback site (module-qualified function)."""
        return self._fold(lambda fn, timer: site_of(fn))

    @property
    def classes(self) -> dict[str, SiteStats]:
        """Attribution per event class of the observatory's taxonomy."""
        return self._fold(_classify)

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

    def top(self, n: int = 10, key: str = "wall") -> list[list]:
        """``n`` hottest sites as table rows
        ``[site, events, sim_ms, wall_ms, wall_share]``."""
        if key not in ("wall", "sim", "events"):
            raise ValueError(f"unknown sort key {key!r}")
        idx = {"events": lambda s: s.events, "sim": lambda s: s.sim_us,
               "wall": lambda s: s.wall_ns}[key]
        ranked = sorted(self.sites.items(),
                        key=lambda kv: (-idx(kv[1]), kv[0]))
        total_wall = self.wall_ns_total or 1
        return [[site, s.events, round(s.sim_us / 1000, 1),
                 round(s.wall_ns / 1e6, 2),
                 f"{100.0 * s.wall_ns / total_wall:.1f}%"]
                for site, s in ranked[:n]]

    def coverage(self) -> float:
        """Fraction of executed callbacks attributed to a named class
        (1 - other/total); the acceptance bar is >= 0.95."""
        events = self.events
        if events <= 0:
            return 1.0
        other: Optional[SiteStats] = self.classes.get("other")
        return 1.0 - (other.events if other is not None else 0) / events

    def tax_rows(self) -> list[list]:
        """The tax table: one row per observed event class, in taxonomy
        order, ``[class, events, event_share, wall_ms, wall_share,
        avg_us, sim_ms]``."""
        from repro.obs.perf.taxonomy import EVENT_CLASSES
        classes = self.classes
        total_events = self.events or 1
        total_wall = self.wall_ns_total or 1
        rows = []
        known = [c for c in EVENT_CLASSES if c in classes]
        extra = sorted(c for c in classes if c not in EVENT_CLASSES)
        for name in known + extra:
            s = classes[name]
            rows.append([
                name, s.events,
                f"{100.0 * s.events / total_events:.1f}%",
                round(s.wall_ns / 1e6, 2),
                f"{100.0 * s.wall_ns / total_wall:.1f}%",
                round(s.wall_ns / 1e3 / (s.events or 1), 2),
                round(s.sim_us / 1000, 1),
            ])
        return rows

    def tax_table(self) -> tuple[str, list, list]:
        """The tax table as a report table ``(title, headers, rows)``."""
        return (f"event-class tax table (coverage "
                f"{100.0 * self.coverage():.1f}%)",
                ["class", "events", "ev%", "wall_ms", "wall%", "avg_us",
                 "sim_ms"], self.tax_rows())

    def bench_payload(self) -> dict:
        """JSON-safe per-class summary for fleet summaries
        (``RunSpec(perf=True)``)."""
        return {"events": self.events,
                "coverage": round(self.coverage(), 4),
                "classes": {name: {"events": s.events, "wall_ns": s.wall_ns,
                                   "sim_us": s.sim_us}
                            for name, s in sorted(self.classes.items())}}
