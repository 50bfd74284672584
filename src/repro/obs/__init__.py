"""What a run is read by, besides its own record.

* :mod:`repro.obs.health` -- protocol health, read from a finished
  run's own recovery books (nothing attached),
* :mod:`repro.obs.profiler` -- the engine profiler (simulated-time and
  wall-clock attribution per callback site) and the
  :class:`Observability` handle that installs it for
  ``run_transfer(obs=...)``.

The simulated stack names neither.  Engine events reach the profiler
through the engine's one hook, ``Simulator.watch``, which is ``None``
on every run not passed an observer.
"""

__all__ = ["Observability"]


def __getattr__(name: str):
    # the profiler on first use: importing ``repro.obs.health`` (a read
    # of a finished run) loads no observer
    if name == "Observability":
        from repro.obs.profiler import Observability
        return Observability
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
