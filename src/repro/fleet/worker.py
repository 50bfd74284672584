"""Worker side of the fleet: build a world from a RunSpec, run it.

:func:`execute_spec` is the single execution path for every mode --
in-process serial runs, pool workers, and cache misses all call it.  It
constructs the scenario, configuration and transfer *only* from the
spec (no ambient state), runs the simulation, and returns the
JSON-canonical summary dict.  Keeping the return value JSON-round-
tripped means the multiprocess, serial and warm-cache paths hand the
aggregation layer bit-identical data.
"""

from __future__ import annotations

import json
import signal
from dataclasses import replace
from types import FrameType
from typing import Any, Optional, Union

from repro.fleet.spec import RunSpec
from repro.fleet.summary import RunSummary, summarize_result

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


def _build_scenario(spec: RunSpec) -> Any:
    from repro.workloads.groups import GROUP_A, GROUP_B, GROUP_C, \
        expand_test_case
    from repro.workloads.scenarios import build_chaos, build_lan, build_wan

    p = spec.scenario_params
    if spec.scenario == "lan":
        return build_lan(p["receivers"], p["bandwidth_bps"],
                         seed=p["seed"])
    if spec.scenario == "wan":
        if "test" in p:
            groups = expand_test_case(p["test"], p["receivers"])
        else:
            by_name = {g.name: g for g in (GROUP_A, GROUP_B, GROUP_C)}
            try:
                groups = [by_name[name] for name in p["groups"]]
            except KeyError as exc:
                raise ValueError(f"unknown characteristic group "
                                 f"{exc.args[0]!r}") from None
        return build_wan(groups, p["bandwidth_bps"], seed=p["seed"])
    if spec.scenario == "chaos":
        return build_chaos(p["receivers"], p["bandwidth_bps"],
                           seed=p["seed"], horizon_us=p["horizon_us"])
    raise ValueError(f"unknown scenario {spec.scenario!r}")


def _build_config(spec: RunSpec) -> Any:
    from repro.core.config import HRMCConfig

    if not spec.cfg:
        return None
    delta = dict(spec.cfg)
    cfg = HRMCConfig()
    if delta.pop("_rmc", False):
        cfg = cfg.as_rmc()
    try:
        return replace(cfg, **delta)
    except TypeError as exc:
        raise ValueError(f"bad config delta for {spec.describe()}: "
                         f"{exc}") from None


def run_spec(spec: RunSpec) -> RunSummary:
    """Execute one spec and return the :class:`RunSummary` (objects,
    not wire format); the world is built from the spec alone."""
    from repro.harness.runner import run_transfer

    scenario = _build_scenario(spec)
    cfg = _build_config(spec)
    obs = None
    perf = None
    if spec.obs or spec.perf:
        from repro.obs.observer import Observability
        if spec.perf:
            # tax table only: flamegraph stacks would bloat the cached
            # summary (sample_every=0 disables the stack sampler)
            from repro.obs.perf import PerfObservatory
            perf = PerfObservatory(sample_every=0)
        obs = Observability(perf=perf)
    result = run_transfer(
        scenario, nbytes=spec.nbytes, protocol=spec.protocol,
        sndbuf=spec.sndbuf, rcvbuf=spec.rcvbuf, cfg=cfg, disk=spec.disk,
        max_sim_s=spec.max_sim_s, invariants=spec.invariants, obs=obs)
    health = None
    if spec.health:
        # a read of the finished run's books: nothing was attached
        from repro.obs.health import payload
        health = payload(result)
    plan = getattr(scenario, "fault_plan", None)
    return summarize_result(
        result, plan_actions=len(plan) if plan is not None else 0,
        obs_tables=obs.summary_tables() if obs is not None and spec.obs
        else None,
        perf=perf.bench_payload() if perf is not None else None,
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
