"""Hot-path performance observatory (``repro.obs.perf``).

Says *where* the engine's host time goes, so a hot-path change can be
aimed before it is made.  This package layers three instruments on the
existing ``Simulator.profiler`` hook:

* **event-class tax table** -- every executed callback attributed to a
  stable taxonomy (:mod:`~repro.obs.perf.taxonomy`), reported as
  events/s and self-wall share per class;
* **deterministic flamegraphs** -- every Nth event traced to a
  collapsed-stack profile (:mod:`~repro.obs.perf.flame`), rendered
  into the self-contained HTML report;
* **allocation & GC tracking** -- tracemalloc phase snapshots and
  gc-pause counters (:mod:`~repro.obs.perf.alloc`), strictly opt-in.

Everything hangs off :class:`PerfObservatory`, which plugs into
:class:`~repro.obs.observer.Observability` via its ``perf=`` argument::

    perf = PerfObservatory(sample_every=16, alloc=True)
    obs = Observability(perf=perf)
    res = run_transfer(build_lan(...), obs=obs)
    print(tabulate(perf.tax_rows()))
    perf.write_collapsed("lan.collapsed.txt")

Wall-clock reads (``perf_counter_ns``, tracemalloc, gc) are measurement
artifacts that never feed back into simulated behaviour; simlint's R1
rule fences them inside this package.  When no observatory is attached
the hot path pays nothing: ``Simulator.profiler`` stays ``None`` and no
perf object exists (the disabled-path tests assert byte-identical
traces and a zero tracemalloc diff).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.perf.alloc import AllocTracker
from repro.obs.perf.flame import StackSampler, flamegraph_svg
from repro.obs.perf.taxonomy import (EVENT_CLASSES, classify, register_site,
                                     timer_class)
from repro.obs.profiler import SimProfiler

__all__ = ["PerfObservatory", "StackSampler", "AllocTracker",
           "EVENT_CLASSES", "classify", "register_site", "timer_class",
           "flamegraph_svg"]


class PerfObservatory:
    """One run's performance instruments, bundled for ``Observability``.

    Parameters
    ----------
    sample_every:
        Trace every Nth executed engine event into the flamegraph
        (0 disables stack sampling entirely).
    alloc:
        Enable tracemalloc/gc tracking (heavy; off by default).
    top_sites:
        Allocation-growth sites to keep in the alloc report.
    """

    def __init__(self, *, sample_every: int = 16, alloc: bool = False,
                 top_sites: int = 10):
        self.profiler = SimProfiler(
            StackSampler(sample_every) if sample_every > 0 else None)
        self.alloc: Optional[AllocTracker] = \
            AllocTracker(top_sites) if alloc else None
        self.attached = False

    # -- lifecycle hooks (driven by Observability) -----------------------

    def attach(self) -> None:
        self.attached = True
        if self.alloc is not None:
            self.alloc.start()

    def tick(self, now_us: int, spans) -> None:
        """Scrape-tick hook: heap samples ride the observability scrape
        so the tracker adds no events of its own."""
        if self.alloc is not None:
            phase = spans.current_phase() if spans is not None else "idle"
            self.alloc.sample(now_us, phase)

    def finalize(self, now_us: int, spans) -> None:
        if self.alloc is not None:
            phase = spans.current_phase() if spans is not None else "idle"
            self.alloc.sample(now_us, phase)
            self.alloc.stop()

    # -- views -----------------------------------------------------------

    @property
    def sampler(self) -> Optional[StackSampler]:
        return self.profiler.sampler

    def coverage(self) -> float:
        return self.profiler.coverage()

    def tax_rows(self) -> list[list]:
        return self.profiler.tax_rows()

    def summary_tables(self) -> list[tuple[str, list, list]]:
        """(title, headers, rows) tables for harness reports, matching
        ``Observability.summary_tables`` shape."""
        tables = []
        rows = self.tax_rows()
        if rows:
            tables.append((
                f"event-class tax table (coverage "
                f"{100.0 * self.coverage():.1f}%)",
                ["class", "events", "ev%", "wall_ms", "wall%",
                 "avg_us", "sim_ms"], rows))
        if self.alloc is not None:
            phase_rows = self.alloc.phase_rows()
            if phase_rows:
                tables.append(("heap by phase",
                               ["phase", "samples", "max_cur_kb",
                                "max_peak_kb", "gc_runs", "gc_pause_ms"],
                               phase_rows))
            growth_rows = self.alloc.growth_rows()
            if growth_rows:
                tables.append(("top allocation growth",
                               ["site", "kb", "blocks"], growth_rows))
        return tables

    def collapsed_lines(self) -> list[str]:
        sampler = self.profiler.sampler
        return sampler.collapsed_lines() if sampler is not None else []

    def write_collapsed(self, path) -> None:
        sampler = self.profiler.sampler
        if sampler is None:
            raise RuntimeError("stack sampling disabled (sample_every=0)")
        sampler.write_collapsed(path)

    def flame_svg(self, width: int = 1000) -> str:
        sampler = self.profiler.sampler
        if sampler is None or not sampler.stacks:
            return ""
        return flamegraph_svg(sampler.stacks, width=width)

    def bench_payload(self) -> dict:
        """JSON-safe block for bench snapshots / fleet summaries."""
        payload = {
            "events": self.profiler.events,
            "coverage": round(self.coverage(), 4),
            "classes": self.profiler.class_payload(),
        }
        sampler = self.profiler.sampler
        if sampler is not None:
            payload["flame_samples"] = sampler.samples
            payload["flame_stacks"] = len(sampler.stacks)
        if self.alloc is not None:
            payload["alloc"] = self.alloc.payload()
        return payload
