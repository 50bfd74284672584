"""Fault-tolerant parallel executor for RunSpec grids.

:class:`Fleet` fans a list of :class:`RunSpec` jobs out over a
process pool, one worker per usable CPU unless told otherwise, with:

* a content-addressed result cache consulted before any execution,
* per-job wall-clock timeouts (armed inside the worker),
* one attempt per job: a run is deterministic, so a job that raises
  or times out is recorded as failed, not re-run, and never cached,
* crashed-worker recovery -- a broken pool is rebuilt and the
  incomplete jobs requeued,
* deterministic output: results are keyed by spec hash and returned in
  submission order, independent of completion order, and every
  execution path (serial, parallel, cached) flows through the same
  canonical run record dicts, so aggregates are byte-identical.

Workers are forked, not spawned: they start without re-importing
``__main__`` and inherit the parent's module state, so a monkeypatch
made before :meth:`Fleet.run_specs` reaches the jobs a pool runs.
``test_job_timeout_in_a_pool_worker_is_a_bounded_failure`` and
``test_committed_wan_gate_can_tell_a_whole_span_nak_claim`` rely on
it.  Job isolation does not depend on that state: the worker rebuilds the
whole world from the spec.

Progress (completed / running / cached / failed) is reported on stderr
when ``progress=True``.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.fleet.fingerprint import code_fingerprint
from repro.fleet.store import ResultStore
from repro.fleet.worker import JobTimeout, execute_spec
from repro.harness.runner import TransferResult
from repro.workloads.spec import RunSpec

if TYPE_CHECKING:  # pragma: no cover
    # imported for real where a pool is built: `--list`, `report`, a
    # one-job sweep and a warm cache never build one
    from concurrent.futures import Future, ProcessPoolExecutor

__all__ = ["Fleet", "FleetError", "FleetStats"]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS
    reports one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


class FleetError(RuntimeError):
    """Raised when a sweep's jobs failed."""


@dataclass
class FleetStats:
    """What one :meth:`Fleet.run_specs` sweep did."""

    workers: int = 0         # the fleet's resolved worker count
    runs: int = 0            # unique specs requested
    executed: int = 0        # simulations actually run
    cached: int = 0          # served from the store
    failed: int = 0          # raised or timed out (run once, not cached)
    pool_restarts: int = 0   # broken pools rebuilt
    wall_s: float = 0.0
    store: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        d = {"workers": self.workers,
             "runs": self.runs, "executed": self.executed,
             "cached": self.cached, "failed": self.failed,
             "pool_restarts": self.pool_restarts,
             "wall_s": round(self.wall_s, 3)}
        if self.store:
            d["store"] = dict(self.store)
        return d

    def render(self) -> str:
        bits = [f"{self.runs} runs", f"{self.cached} cached",
                f"{self.executed} executed"]
        if self.pool_restarts:
            bits.append(f"{self.pool_restarts} pool restarts")
        if self.failed:
            bits.append(f"{self.failed} FAILED")
        return f"fleet: {', '.join(bits)} in {self.wall_s:.1f}s"


class _Progress:
    """One-line live counter on stderr (overwritten in place)."""

    def __init__(self, enabled: bool, total: int) -> None:
        self.enabled = enabled and total > 0
        self.total = total
        self._dirty = False

    def update(self, done: int, running: int, cached: int,
               failed: int) -> None:
        if not self.enabled:
            return
        line = (f"fleet: {done}/{self.total} done "
                f"({cached} cached, {running} running"
                + (f", {failed} failed" if failed else "") + ")")
        print(f"\r{line:<70}", end="", file=sys.stderr, flush=True)
        self._dirty = True

    def finish(self) -> None:
        if self.enabled and self._dirty:
            print(file=sys.stderr, flush=True)


class Fleet:
    """Executor for RunSpec grids; construct once, run many sweeps.

    ``workers=None`` (the default) means :func:`_usable_cpus`, except in
    a thread under a profiler (``sys.getprofile()``), where it means 1:
    a pool would take the work out of the profile.  A sweep runs on a
    pool of ``min(workers, pending jobs)`` processes; ``workers=1`` or a
    single pending job runs in-process, through the very same worker
    entry point the pool uses.  ``cache_dir=None`` disables the result
    store entirely (every job executes).
    """

    def __init__(self, *, workers: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 refresh: bool = False,
                 timeout_s: Optional[float] = 900.0,
                 progress: bool = False) -> None:
        if workers is None:
            workers = 1 if sys.getprofile() is not None else _usable_cpus()
        self.workers = max(1, int(workers))
        self.refresh = refresh
        self.timeout_s = timeout_s
        self.progress = progress
        self.fingerprint = code_fingerprint()
        self.store = (ResultStore(cache_dir, self.fingerprint)
                      if cache_dir else None)
        self.stats = FleetStats(workers=self.workers)

    # -- public API ----------------------------------------------------

    def run_specs(self, specs: list[RunSpec], *,
                  strict: bool = True) -> dict[str, TransferResult]:
        """Execute ``specs``; returns ``{content_hash: TransferResult}``
        in submission order.  With ``strict`` (default), any failed job
        raises :class:`FleetError` naming every failed spec (after the
        rest of the sweep has completed, so partial results land in the
        cache)."""
        t0 = time.perf_counter()
        ordered: list[RunSpec] = []
        seen: set[str] = set()
        for spec in specs:
            h = spec.content_hash()
            if h not in seen:
                seen.add(h)
                ordered.append(spec)
        self.stats.runs += len(ordered)

        results: dict[str, TransferResult] = {}
        errors: dict[str, str] = {}
        pending: list[RunSpec] = []
        for spec in ordered:
            cached = None
            if self.store is not None and not self.refresh:
                cached = self.store.get(spec)
            if cached is not None:
                results[spec.content_hash()] = cached
                self.stats.cached += 1
            else:
                pending.append(spec)

        progress = _Progress(self.progress, len(ordered))
        progress.update(len(results), 0, self.stats.cached, 0)
        try:
            size = min(self.workers, len(pending))
            if size == 1:
                self._run_serial(pending, results, errors, progress)
            elif size > 1:
                self._run_pool(size, pending, results, errors, progress)
        finally:
            progress.finish()
            self.stats.wall_s += time.perf_counter() - t0
            if self.store is not None:
                self.stats.store = self.store.stats.as_dict()

        if errors and strict:
            lines = "\n".join(f"  {h[:12]}: {msg}"
                              for h, msg in sorted(errors.items()))
            raise FleetError(f"{len(errors)} job(s) failed:\n{lines}")
        # submission order, not completion order
        return {s.content_hash(): results[s.content_hash()]
                for s in ordered if s.content_hash() in results}

    # -- execution paths -----------------------------------------------

    def _record(self, spec: RunSpec, record: dict,
                results: dict[str, TransferResult]) -> None:
        if self.store is not None:
            self.store.put(spec, record)
        results[spec.content_hash()] = TransferResult.from_dict(record)
        self.stats.executed += 1

    def _fail(self, spec: RunSpec, exc: BaseException,
              errors: dict[str, str]) -> None:
        """A job raised or ran out of time: deterministic, so it is
        recorded once as failed, never re-run and never cached."""
        errors[spec.content_hash()] = f"{spec.describe()}: {exc}"
        self.stats.failed += 1

    def _run_serial(self, pending: list[RunSpec],
                    results: dict[str, TransferResult],
                    errors: dict[str, str],
                    progress: _Progress) -> None:
        for spec in pending:
            progress.update(len(results), 1, self.stats.cached,
                            self.stats.failed)
            try:
                record = execute_spec(spec.to_dict(), self.timeout_s)
            except (Exception, JobTimeout) as exc:  # job boundary
                self._fail(spec, exc, errors)
            else:
                self._record(spec, record, results)
            progress.update(len(results), 0, self.stats.cached,
                            self.stats.failed)

    def _new_pool(self, size: int) -> ProcessPoolExecutor:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork (see the module docstring): cheap worker start, no
        # __main__ re-import, and the parent's patches reach the workers
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = multiprocessing.get_context("spawn")
        return ProcessPoolExecutor(max_workers=size, mp_context=ctx)

    def _run_pool(self, size: int, pending: list[RunSpec],
                  results: dict[str, TransferResult],
                  errors: dict[str, str],
                  progress: _Progress) -> None:
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        pool = self._new_pool(size)
        inflight: dict[Future, RunSpec] = {}
        queue = list(pending)
        max_pool_restarts = self.workers + 2
        try:
            while queue or inflight:
                while queue:
                    spec = queue.pop(0)
                    try:
                        fut = pool.submit(execute_spec, spec.to_dict(),
                                          self.timeout_s)
                    except (BrokenProcessPool, RuntimeError):
                        pool, queue, inflight = self._rebuild_pool(
                            pool, size, spec, queue, inflight,
                            max_pool_restarts)
                        continue
                    inflight[fut] = spec
                progress.update(len(results), len(inflight),
                                self.stats.cached, self.stats.failed)
                completed, _ = wait(list(inflight),
                                    return_when=FIRST_COMPLETED,
                                    timeout=0.5)
                for fut in completed:
                    spec = inflight.pop(fut, None)
                    if spec is None:  # orphaned by a pool rebuild
                        continue
                    try:
                        record = fut.result()
                    except BrokenProcessPool:
                        # the worker died (OOM-kill, segfault, ...):
                        # rebuild the pool and requeue everything that
                        # was in flight, this job included; remaining
                        # futures of the dead pool are orphaned above
                        pool, queue, inflight = self._rebuild_pool(
                            pool, size, spec, queue, inflight,
                            max_pool_restarts)
                        break
                    except (Exception, JobTimeout) as exc:
                        self._fail(spec, exc, errors)
                    else:
                        self._record(spec, record, results)
                progress.update(len(results), len(inflight),
                                self.stats.cached, self.stats.failed)
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        # reap the workers: their CPU time reaches RUSAGE_CHILDREN now,
        # and none outlives the sweep
        pool.shutdown(wait=True)

    def _rebuild_pool(
            self, pool: ProcessPoolExecutor, size: int, spec: RunSpec,
            queue: list[RunSpec], inflight: dict[Future, RunSpec],
            max_restarts: int,
    ) -> tuple[ProcessPoolExecutor, list[RunSpec],
               dict[Future, RunSpec]]:
        """Replace a broken pool; requeue the in-flight jobs."""
        self.stats.pool_restarts += 1
        if self.stats.pool_restarts > max_restarts:
            raise FleetError(
                f"process pool died {self.stats.pool_restarts} times; "
                f"giving up (last job: {spec.describe()})")
        pool.shutdown(wait=False, cancel_futures=True)
        requeue = [spec] + list(inflight.values()) + queue
        return self._new_pool(size), requeue, {}
