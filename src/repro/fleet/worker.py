"""Worker side of the fleet: run one RunSpec, return its run record.

:func:`execute_spec` is the single execution path for every mode --
in-process serial runs, pool workers, and cache misses all call it.  The
world comes from the spec alone (:meth:`RunSpec.build`, no ambient
state); the worker runs it and returns the JSON-canonical
:meth:`TransferResult.to_dict` record.  Keeping the return value
JSON-round-tripped means the multiprocess, serial and warm-cache paths
hand the aggregation layer bit-identical data.
"""

from __future__ import annotations

import json
import signal
from types import FrameType
from typing import Optional, Union

from repro.harness.runner import TransferResult, run_transfer
from repro.workloads.spec import RunSpec

__all__ = ["execute_spec", "run_spec", "JobTimeout"]


class JobTimeout(BaseException):
    """A job exceeded its per-run wall-clock budget.

    Raised from the SIGALRM handler, so it lands wherever the job
    happens to be executing -- usually inside an application generator,
    under ``Process._resume``'s ``except Exception``, which would store
    it as that process's error and let the run carry on without the
    process.  A ``BaseException`` passes every such handler; the
    executor's job boundary names it explicitly.
    """


def run_spec(spec: RunSpec) -> TransferResult:
    """Execute one spec, bare, and return its :class:`TransferResult`.
    The roles' recovery books are in every record
    (``TransferResult.books``)."""
    scenario, kwargs = spec.build()
    return run_transfer(scenario, **kwargs)


def execute_spec(spec_dict: dict,
                 timeout_s: Optional[float] = None) -> dict:
    """Pool entry point: spec dict in, canonical run record dict out.

    ``timeout_s`` arms a per-job wall-clock alarm (POSIX main thread
    only); expiry raises :class:`JobTimeout`, which the executor treats
    like any other job failure (recorded once, never cached).
    """
    spec = RunSpec.from_dict(spec_dict)
    use_alarm = (timeout_s is not None and hasattr(signal, "SIGALRM"))
    old_handler: Union[None, int, object] = None
    if use_alarm:
        def _expired(signum: int, frame: Optional[FrameType]) -> None:
            raise JobTimeout(f"job exceeded {timeout_s:g}s wall clock: "
                             f"{spec.describe()}")
        try:
            old_handler = signal.signal(signal.SIGALRM, _expired)
            signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
        except ValueError:          # not the main thread
            use_alarm = False
    try:
        result = run_spec(spec)
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)
    # one canonical representation for every execution path
    return json.loads(json.dumps(result.to_dict(), sort_keys=True))
