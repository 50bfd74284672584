"""Unified observability layer.

``repro.obs`` instruments a scenario without perturbing it:

* :mod:`repro.obs.metrics` -- deterministic gauges, fixed-bucket
  histograms and time series, sampled on simulated time,
* :mod:`repro.obs.profiler` -- simulated-time and wall-clock
  attribution per engine callback site,
* :mod:`repro.obs.export` -- JSONL series dumps and text summaries,
* :mod:`repro.obs.observer` -- the :class:`Observability` facade that
  wires the above into ``run_transfer(obs=...)``,
* :mod:`repro.obs.health` -- protocol health, read from a finished
  run's own recovery books (nothing attached).

The simulated stack names none of them.  Gauges read the endpoints
between events; engine events reach the profiler through the engine's
one hook, ``Simulator.watch``, which is ``None`` on a bare run and on
a run observed without the profiler.
"""

__all__ = ["Observability"]


def __getattr__(name: str):
    # the facade on first use: importing ``repro.obs.health`` (a read
    # of a finished run) loads no observer
    if name == "Observability":
        from repro.obs.observer import Observability
        return Observability
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
