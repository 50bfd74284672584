"""Parallel experiment-fleet orchestration.

The paper's evaluation is a sweep of independent deterministic
simulations; this package runs each cell of that sweep -- a
:class:`~repro.workloads.spec.RunSpec`, the declarative description of
one run that every single-transfer command builds its run from too --
as a content-addressed job:

* :mod:`repro.fleet.fingerprint` -- the code fingerprint that
  auto-invalidates cached results when what a run computes changes,
* :mod:`repro.fleet.worker` -- runs one spec and returns its
  :class:`~repro.harness.runner.TransferResult` as JSON data (the one
  execution path for every mode),
* :mod:`repro.fleet.store` -- the content-addressed result cache under
  ``.hrmc-cache/`` with hit/miss/invalidation accounting,
* :mod:`repro.fleet.executor` -- :class:`Fleet`, the fault-tolerant
  multiprocess executor (timeouts, one attempt per job, crashed-worker
  requeue, deterministic result ordering).

A cell's result is the same :class:`~repro.harness.runner.TransferResult`
a direct :func:`~repro.harness.runner.run_transfer` call returns, less
its live handles; the cache stores its ``to_dict()``.
"""

from repro.fleet.executor import Fleet, FleetError, FleetStats
from repro.fleet.fingerprint import code_fingerprint
from repro.fleet.store import DEFAULT_CACHE_DIR, ResultStore
from repro.fleet.worker import execute_spec, run_spec

__all__ = ["Fleet", "FleetError", "FleetStats", "ResultStore",
           "DEFAULT_CACHE_DIR", "code_fingerprint", "execute_spec",
           "run_spec"]
