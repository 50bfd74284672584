"""Fleet executor: determinism, resume, retries, timeouts."""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.fleet import Fleet, FleetError
from repro.workloads.spec import RunSpec


def _grid(n: int = 4) -> list[RunSpec]:
    return [RunSpec.lan(1, 10e6, seed=s, nbytes=60_000)
            for s in range(1, n + 1)]


def _dicts(results) -> list[dict]:
    return [r.to_dict() for r in results.values()]


def test_serial_parallel_and_warm_are_byte_identical(tmp_path):
    specs = _grid()
    serial = Fleet(workers=1).run_specs(specs)

    cache = str(tmp_path / "c")
    cold_fleet = Fleet(workers=2, cache_dir=cache)
    cold = cold_fleet.run_specs(specs)
    assert cold_fleet.stats.executed == len(specs)

    warm_fleet = Fleet(workers=2, cache_dir=cache)
    warm = warm_fleet.run_specs(specs)
    assert warm_fleet.stats.cached == len(specs)
    assert warm_fleet.stats.executed == 0

    assert list(serial) == list(cold) == list(warm)  # submission order
    assert _dicts(serial) == _dicts(cold) == _dicts(warm)


def test_default_workers_are_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    fleet = Fleet()
    assert fleet.workers == 3
    assert fleet.stats.as_dict()["workers"] == 3
    assert Fleet(workers=5).workers == 5      # an explicit count wins


def test_a_profiled_thread_defaults_to_one_worker():
    import cProfile
    with cProfile.Profile():
        assert Fleet().workers == 1
        assert Fleet(workers=2).workers == 2


def test_one_pending_job_builds_no_pool(monkeypatch):
    def no_pool(self, *args):
        raise AssertionError("built a pool for one job")

    monkeypatch.setattr(Fleet, "_new_pool", no_pool)
    results = Fleet(workers=4).run_specs(_grid(1))
    assert [r.ok for r in results.values()] == [True]


def test_pool_workers_are_reaped_before_run_specs_returns():
    import multiprocessing
    fleet = Fleet(workers=2)
    fleet.run_specs(_grid(3))
    assert fleet.stats.executed == 3
    assert multiprocessing.active_children() == []


def test_duplicate_specs_run_once(tmp_path):
    specs = _grid(2)
    fleet = Fleet(workers=1, cache_dir=str(tmp_path / "c"))
    results = fleet.run_specs(specs + specs)
    assert fleet.stats.runs == 2
    assert fleet.stats.executed == 2
    assert len(results) == 2


def test_resume_executes_exactly_the_missing_cells(tmp_path):
    """An interrupted sweep leaves a partial cache; re-running executes
    only the cells that are not there yet."""
    specs = _grid(4)
    cache = str(tmp_path / "c")

    first = Fleet(workers=1, cache_dir=cache)
    first.run_specs(specs[:2])  # "interrupted" after two cells

    resumed = Fleet(workers=1, cache_dir=cache)
    results = resumed.run_specs(specs)
    assert resumed.stats.cached == 2
    assert resumed.stats.executed == 2
    assert list(results) == [s.content_hash() for s in specs]


def test_resume_after_sigkill(tmp_path):
    """SIGKILL a sweep mid-flight; the atomic store never holds a
    half-written cell, and the re-run completes exactly the rest."""
    cache = str(tmp_path / "c")
    specs = _grid(6)
    prog = (
        "import sys\n"
        "sys.path.insert(0, 'src')\n"
        "from repro.fleet import Fleet\n"
        "from repro.workloads.spec import RunSpec\n"
        "specs = [RunSpec.lan(1, 10e6, seed=s, nbytes=60_000)\n"
        "         for s in range(1, 7)]\n"
        f"Fleet(workers=1, cache_dir={cache!r}).run_specs(specs)\n"
        "print('FULL-SWEEP-DONE')\n"
    )
    repo = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    proc = subprocess.Popen([sys.executable, "-c", prog], cwd=repo,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    # wait for at least one committed cell, then kill -9
    deadline = time.time() + 60
    def cells():
        return [f for _, _, fs in os.walk(cache) for f in fs
                if f.endswith(".json") and not f.startswith(".tmp-")]
    while time.time() < deadline and not cells():
        if proc.poll() is not None:
            break
        time.sleep(0.02)
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=60)

    done_before = len(cells())
    assert done_before >= 1  # something committed before the kill

    fleet = Fleet(workers=1, cache_dir=cache)
    results = fleet.run_specs(specs)
    assert len(results) == len(specs)
    assert fleet.stats.cached == done_before
    assert fleet.stats.executed == len(specs) - done_before
    assert fleet.stats.store.get("corrupt", 0) == 0


def test_refresh_re_executes_and_overwrites(tmp_path):
    specs = _grid(2)
    cache = str(tmp_path / "c")
    Fleet(workers=1, cache_dir=cache).run_specs(specs)
    fleet = Fleet(workers=1, cache_dir=cache, refresh=True)
    fleet.run_specs(specs)
    assert fleet.stats.executed == 2 and fleet.stats.cached == 0

    warm = Fleet(workers=1, cache_dir=cache)
    warm.run_specs(specs)
    assert warm.stats.cached == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_job_raises_fleet_error_after_retries(tmp_path, workers):
    bad = RunSpec.lan(1, 10e6, seed=1, nbytes=1000,
                      cfg={"no_such_knob": True})   # fails in the worker
    good = _grid(1)
    fleet = Fleet(workers=workers, cache_dir=str(tmp_path / "c"),
                  retries=1, backoff_s=0.01)
    with pytest.raises(FleetError, match="bad config delta"):
        fleet.run_specs(good + [bad])
    assert fleet.stats.failed == 1
    assert fleet.stats.retries == 1
    # the sweep still completed (and cached) the good cell
    assert fleet.stats.executed == 1

    # non-strict mode reports partial results instead of raising
    fleet2 = Fleet(workers=workers, cache_dir=str(tmp_path / "c"),
                   retries=0)
    results = fleet2.run_specs(good + [bad], strict=False)
    assert len(results) == 1
    assert fleet2.stats.cached == 1


def test_bad_config_delta_fails_cleanly(tmp_path):
    bad = RunSpec.lan(1, 10e6, seed=1, nbytes=1000,
                      cfg={"no_such_knob": True})
    fleet = Fleet(workers=1, retries=0)
    with pytest.raises(FleetError, match="bad config delta"):
        fleet.run_specs([bad])


def _alarm_inside_an_app_process(monkeypatch):
    # The alarm lands wherever the job is executing, which is nearly
    # always inside an application generator.  Drive it there on
    # purpose -- SIGALRM raised from every job's first CPU-work request
    # in an app process, with the real timer far away -- so the verdict
    # does not depend on how fast the host is.
    from repro.kernel.host import Host
    real_cpu_exec = Host.cpu_exec

    def cpu_exec(self, cost_us):
        signal.raise_signal(signal.SIGALRM)
        yield from real_cpu_exec(self, cost_us)

    monkeypatch.setattr(Host, "cpu_exec", cpu_exec)


def test_job_timeout_is_a_bounded_failure(monkeypatch):
    _alarm_inside_an_app_process(monkeypatch)
    fleet = Fleet(workers=1, timeout_s=3600, retries=0)
    with pytest.raises(FleetError, match="wall clock"):
        fleet.run_specs(_grid(1))
    assert fleet.stats.failed == 1
    assert fleet.stats.executed == 0


def test_job_timeout_in_a_pool_worker_is_a_bounded_failure(monkeypatch):
    # pool workers are forked and inherit the patch; the BaseException
    # travels back through the future and is counted, not re-raised
    _alarm_inside_an_app_process(monkeypatch)
    fleet = Fleet(workers=2, timeout_s=3600, retries=0)
    with pytest.raises(FleetError, match="wall clock"):
        fleet.run_specs(_grid(2))
    assert fleet.stats.failed == 2
    assert fleet.stats.executed == 0
