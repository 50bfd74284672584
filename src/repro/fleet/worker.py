"""Worker side of the fleet: run one RunSpec, summarize the result.

:func:`execute_spec` is the single execution path for every mode --
in-process serial runs, pool workers, and cache misses all call it.  The
world comes from the spec alone (:meth:`RunSpec.build`, no ambient
state); the worker runs it and returns the JSON-canonical summary dict.
Keeping the return value JSON-round-tripped means the multiprocess,
serial and warm-cache paths hand the aggregation layer bit-identical
data.
"""

from __future__ import annotations

import json
import signal
from types import FrameType
from typing import Optional, Union

from repro.fleet.summary import RunSummary, summarize_result
from repro.harness.runner import run_transfer
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


def run_spec(spec: RunSpec) -> RunSummary:
    """Execute one spec and return the :class:`RunSummary` (objects,
    not wire format)."""
    scenario, kwargs = spec.build()
    obs = None
    if spec.obs:
        from repro.obs.observer import Observability
        obs = Observability()
    result = run_transfer(scenario, obs=obs, **kwargs)
    health = None
    if spec.health:
        # a read of the finished run's books: nothing was attached
        from repro.obs.health import payload
        health = payload(result)
    plan = scenario.fault_plan
    return summarize_result(
        result, plan_actions=len(plan) if plan is not None else 0,
        obs_tables=obs.summary_tables() if obs is not None else None,
        health=health)


def execute_spec(spec_dict: dict,
                 timeout_s: Optional[float] = None) -> dict:
    """Pool entry point: spec dict in, canonical summary dict out.

    ``timeout_s`` arms a per-job wall-clock alarm (POSIX main thread
    only); expiry raises :class:`JobTimeout`, which the executor treats
    like any other job failure (bounded retries, then reported).
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
        summary = run_spec(spec)
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)
    # one canonical representation for every execution path
    return json.loads(json.dumps(summary.to_dict(), sort_keys=True))
