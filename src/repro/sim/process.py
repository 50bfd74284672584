"""Generator-based cooperative processes (CSIM "processes").

The paper's simulator uses CSIM processes for hosts, network interfaces
and routers.  Protocol code in this repo is event/timer driven (like the
kernel original), but *application* models -- a sender reading a file
from disk, a receiver writing one -- are naturally sequential, so they
are written as generator processes:

.. code-block:: python

    def copy_app(sock, disk, nbytes):
        got = 0
        while got < nbytes:
            data = yield from sock.recv(65536)
            got += len(data)
            yield from disk.write(len(data))

A process on the per-packet path may instead subclass :class:`Process`
and override :meth:`Process._resume` as a plain event handler, handing
wakes to the generator only for the part that reads best as one; the
file-transfer receiver does so, and drives only its close through the
generator.  It stays a process to everything that holds one (``kill``,
``alive``, ``error``, ``done_event``, ``join``).

A process generator may ``yield``:

* :class:`Delay` -- sleep for N microseconds,
* :class:`SimEvent` -- block until the event fires (``event.fire(value)``
  resumes all waiters; the yielded expression evaluates to the value),
* any other object with an ``_arm(proc)`` method that schedules
  ``proc._resume`` itself -- how ``yield from host.cpu_exec(c)`` makes
  the resume *be* the CPU-completion event, without this layer
  importing kernel,
* another generator via ``yield from`` -- ordinary composition.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.engine import Simulator

__all__ = ["Delay", "SimEvent", "Process", "ProcessKilled"]


class Delay:
    """Yield inside a process to sleep for ``us`` microseconds."""

    __slots__ = ("us",)

    def __init__(self, us: int):
        if us < 0:
            raise ValueError(f"negative delay {us}")
        self.us = int(us)

    def _arm(self, proc: "Process") -> None:
        proc._sim.call_after(self.us, proc._resume, None)


class ProcessKilled(Exception):
    """Thrown into a process generator by :meth:`Process.kill`."""


class SimEvent:
    """A one-to-many wake-up point.

    ``fire(value)`` resumes every waiting process at the current time;
    each waiter's ``yield`` evaluates to ``value``.  Events are reusable:
    waiters that arrive after a fire block until the next fire.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self._sim = sim
        self._waiters: list[Process] = []
        self.name = name
        self.fire_count = 0

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        self.fire_count += 1
        waiters = self._waiters
        if not waiters:          # the usual case on the per-packet path
            return 0
        self._waiters = []
        for proc in waiters:
            self._sim.call_after(0, proc._resume, value)
        return len(waiters)

    def _arm(self, proc: "Process") -> None:
        proc._waiting_on = self
        self._waiters.append(proc)

    def _discard_waiter(self, proc: "Process") -> None:
        try:
            self._waiters.remove(proc)
        except ValueError:
            pass

    @property
    def waiting(self) -> int:
        return len(self._waiters)


class Process:
    """Drives a generator as a cooperative simulated process.

    An exception that ends the generator is kept on ``error`` and
    re-raised by :meth:`join`.  A process whose caller cannot go on
    without it is marked ``fatal``: its error then leaves
    :meth:`Simulator.run` at once, as a ``RuntimeError`` naming the
    process, instead of waiting for a join that may never come.
    """

    fatal = False

    def __init__(self, sim: Simulator, gen: Generator, name: str = ""):
        self._sim = sim
        self._gen = gen
        self.name = name
        self.alive = True
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.done_event = SimEvent(sim, name=f"{name}.done")
        self._waiting_on: Optional[SimEvent] = None
        sim.call_after(0, self._resume, None)

    def kill(self) -> None:
        """Terminate the process by throwing :class:`ProcessKilled` into it."""
        if not self.alive:
            return
        if self._waiting_on is not None:
            self._waiting_on._discard_waiter(self)
            self._waiting_on = None
        try:
            self._gen.throw(ProcessKilled())
        except (ProcessKilled, StopIteration):
            pass
        self._finish(None, None)

    def _finish(self, result: Any, error: Optional[BaseException]) -> None:
        if not self.alive:
            return
        self.alive = False
        self.result = result
        self.error = error
        self.done_event.fire(result)
        if error is not None and self.fatal:
            raise RuntimeError(f"process {self.name!r} died mid-run with "
                               f"{error!r}") from error

    def _resume(self, value: Any) -> None:
        if not self.alive:
            return
        self._waiting_on = None
        try:
            yielded = self._gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except ProcessKilled:
            self._finish(None, None)
            return
        except Exception as exc:  # kept for join (raised now if fatal)
            self._finish(None, exc)
            return
        try:
            # looked up on the type: a class yielded by mistake is not armable
            arm = type(yielded)._arm
        except AttributeError:
            self._finish(
                None,
                TypeError(
                    f"process {self.name!r} yielded {type(yielded).__name__}; "
                    "expected Delay, SimEvent or an object with _arm(proc)"
                ),
            )
        else:
            arm(yielded, self)

    def join(self) -> Generator:
        """``yield from proc.join()`` inside another process."""
        if self.alive:
            yield self.done_event
        if self.error is not None:
            raise self.error
        return self.result
