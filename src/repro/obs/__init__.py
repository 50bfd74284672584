"""Unified observability layer.

``repro.obs`` instruments a scenario without perturbing it:

* :mod:`repro.obs.metrics` -- deterministic gauges, fixed-bucket
  histograms and time series, sampled on simulated time,
* :mod:`repro.obs.spans` -- packet-lifecycle latency histograms and
  protocol-phase spans stitched from the packet seam,
* :mod:`repro.obs.profiler` -- simulated-time and wall-clock
  attribution per engine callback site, folded into the event classes
  of :mod:`repro.obs.perf` for the tax table,
* :mod:`repro.obs.causal` -- the per-run causal lineage DAG (who
  caused what, from fault action to repaired byte),
* :mod:`repro.obs.diag` -- root-cause queries over the DAG
  (``why(seq)``, ``explain_worst``, stall watchdog),
* :mod:`repro.obs.diffing` -- run-divergence alignment (first causally
  significant split between two runs),
* :mod:`repro.obs.export` -- JSONL/CSV series dumps, text summaries
  and Chrome Trace Event Format JSON for Perfetto,
* :mod:`repro.obs.observer` -- the :class:`Observability` facade that
  wires the above into ``run_transfer(obs=...)``,
* :mod:`repro.obs.health` -- protocol health, read from a finished
  run's own recovery books (nothing attached).

The simulated stack names none of them.  Packets, and the gaps and
repairs the protocol reports, reach them through the packet seam
(``Simulator.tap``, owned by :mod:`repro.trace.tracer`); engine events
reach the profiler or the causal recorder through the engine's one
hook, ``Simulator.watch``.  Both are ``None`` on a bare run.
"""

__all__ = ["Observability"]


def __getattr__(name: str):
    # the facade on first use: importing ``repro.obs.health`` (a read
    # of a finished run) loads no observer, span collector or tracer
    if name == "Observability":
        from repro.obs.observer import Observability
        return Observability
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
