"""Discrete-event simulation engine (CSIM substitute).

The paper's simulator is built on CSIM, a C-based process-oriented
simulation package.  This package provides the equivalent facilities in
Python:

* :class:`~repro.sim.engine.Simulator` -- event heap with an integer
  microsecond clock, driven by ``run(until=...)``: the event list
  draining, ``until`` and a callback that raises are the only stops.
* :class:`~repro.sim.timer.Timer` -- Linux ``timer_list``-style restartable
  timers (``mod_timer`` / ``del_timer``) plus jiffy conversion helpers.
* :class:`~repro.sim.process.Process` / :class:`~repro.sim.process.SimEvent`
  -- generator-based cooperative processes used for application models
  (CSIM "processes").
* :mod:`repro.sim.rng` -- deterministic per-component random streams.
"""

from repro.sim.engine import Simulator, SimulationError
from repro.sim.process import Process, SimEvent, Delay, ProcessKilled
from repro.sim.timer import Timer, JIFFY_US, jiffies_to_us, us_to_jiffies
from repro.sim.rng import substream

__all__ = [
    "Simulator",
    "SimulationError",
    "Process",
    "SimEvent",
    "Delay",
    "ProcessKilled",
    "Timer",
    "JIFFY_US",
    "jiffies_to_us",
    "us_to_jiffies",
    "substream",
]
