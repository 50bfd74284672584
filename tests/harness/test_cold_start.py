"""What every invocation pays before it simulates anything."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def test_running_anything_does_not_import_numpy():
    """`harness.runner -> faults.invariants -> trace.tracer -> repro.trace
    -> analyzer` is on every run's import path; numpy (~0.1 s, ~13 MB)
    is imported by the three plotting helpers that use it, not there."""
    code = ("import repro.harness.cli, repro.harness.runner, sys; "
            "assert 'numpy' not in sys.modules, 'numpy imported'; "
            "import repro.trace as t; t.sparkline([1, 2, 3]); "
            "assert 'numpy' in sys.modules")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_listing_experiments_does_not_import_a_process_pool():
    """`multiprocessing` and `concurrent.futures` (~20 ms of a 120 ms
    `--list`) are imported where the fleet builds a pool; `--list`,
    `report` and every serial sweep never do."""
    code = ("import sys; from repro.harness import cli; "
            "assert cli.main(['--list']) == 0; "
            "pool = [m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules]; assert not pool, pool")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
