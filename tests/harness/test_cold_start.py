"""What every invocation pays before it simulates anything.

Each check runs in a fresh interpreter and counts modules, never time:
an entry point may load only the code it runs.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: subsystems a bare H-RMC transfer never executes
NOT_ON_A_BARE_TRANSFER = (
    "repro.obs", "repro.trace", "repro.faults", "repro.baselines",
    "repro.fleet", "repro.analysis", "repro.core.rmc",
    "repro.harness.experiments", "repro.harness.cli")

_HELPERS = """
import io, os, sys
from contextlib import redirect_stderr, redirect_stdout

def exists(name):
    # looked up on disk: importing it (or its package) would load it
    base = name.replace(".", os.sep)
    return any(os.path.isfile(os.path.join(root, base + ".py")) or
               os.path.isfile(os.path.join(root, base, "__init__.py"))
               for root in sys.path if root)

def under(prefixes):
    # a gate naming a module that no longer exists would pass vacuously
    missing = [p for p in prefixes if not exists(p)]
    assert not missing, f'no such module: {missing}'
    return sorted(m for m in sys.modules
                  if any(m == p or m.startswith(p + ".") for p in prefixes))

def quietly(fn, *args):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return fn(*args)
"""


def _run(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run([sys.executable, "-c", _HELPERS + code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_running_anything_does_not_import_numpy():
    """numpy (~0.1 s, ~13 MB) is imported by the three plotting helpers
    of the offline trace analyzer that use it, and by nothing the CLI or
    a transfer imports."""
    _run("import repro.harness.cli, repro.harness.runner\n"
         "assert 'numpy' not in sys.modules, 'numpy imported'\n"
         "from repro.trace.analyzer import sparkline\n"
         "sparkline([1, 2, 3])\n"
         "assert 'numpy' in sys.modules\n")


def test_listing_experiments_does_not_import_a_process_pool():
    """`multiprocessing` and `concurrent.futures` (~20 ms of a 120 ms
    `--list`) are imported where the fleet builds a pool; `--list`,
    `report` and every serial sweep never do."""
    _run("from repro.harness import cli\n"
         "assert cli.main(['--list']) == 0\n"
         "pool = under(('multiprocessing', 'concurrent.futures'))\n"
         "assert not pool, pool\n")


def test_a_bare_transfer_loads_only_what_it_runs():
    """The benchmark's import lines load no subsystem a bare H-RMC
    transfer does not execute, and the transfer imports nothing while
    it runs."""
    _run("from repro.harness.runner import run_transfer\n"
         "from repro.workloads import build_lan, build_wan, "
         "expand_test_case\n"
         f"extra = under({NOT_ON_A_BARE_TRANSFER!r})\n"
         "assert not extra, extra\n"
         "scenario = build_lan(2, 100e6, seed=7)\n"
         "before = set(sys.modules)\n"
         "result = run_transfer(scenario, nbytes=200_000, "
         "sndbuf=512 * 1024, seed=7)\n"
         "assert result.ok\n"
         "added = sorted(set(sys.modules) - before)\n"
         "assert not added, added\n")


def test_listing_experiments_loads_no_experiment_code():
    _run("from repro.harness import cli\n"
         "assert quietly(cli.main, ['--list']) == 0\n"
         "extra = under(('repro.harness.experiments', 'repro.fleet', "
         "'repro.analysis', 'repro.faults'))\n"
         "assert not extra, extra\n")


def test_the_cli_import_is_exactly_what_report_runs():
    """`report` runs on what `import repro.harness.cli` loaded -- the
    benchmark profiles main() after that import, so a module the command
    loaded itself would be charged to no layer -- and that import holds
    nothing `report` does not run."""
    _run("import repro.harness.cli as cli\n"
         "extra = under(('repro.harness.experiments', 'repro.fleet', "
         "'repro.analysis', 'repro.faults', 'repro.baselines', "
         "'repro.core.rmc', 'repro.trace.analyzer', 'repro.obs.causal', "
         "'repro.obs.diag', 'repro.obs.diffing'))\n"
         "assert not extra, extra\n"
         "before = set(sys.modules)\n"
         "rc = quietly(cli.main, ['report', 'lan', '--receivers', '2', "
         "'--nbytes', '50000'])\n"
         "assert rc == 0\n"
         "added = sorted(m for m in set(sys.modules) - before "
         "if m.startswith('repro'))\n"
         "assert not added, added\n")


def test_an_experiment_cell_loads_no_observer():
    """An unobserved fleet cell -- what every experiment runs -- never
    loads the observability layer."""
    _run("from repro.fleet.executor import Fleet\n"
         "from repro.fleet.spec import RunSpec\n"
         "from repro.harness.experiments import run_experiments\n"
         "spec = RunSpec.lan(2, 10e6, seed=1, nbytes=20_000)\n"
         "summary = Fleet(cache_dir=None).run_specs([spec])"
         "[spec.content_hash()]\n"
         "assert summary.ok\n"
         "extra = under(('repro.obs',))\n"
         "assert not extra, extra\n")


#: what watching a run takes, and reading its health does not
INSTRUMENTS = ("repro.obs.observer", "repro.obs.spans", "repro.trace.tracer")


def test_reading_health_attaches_nothing():
    """Protocol health is a read of the finished run's books: a
    `RunSpec(health=True)` cell loads no observer, span collector or
    tracer, and `health report wan` (whose CLI import already holds
    them, for `report`) builds none of the three."""
    _run("from repro.fleet.executor import Fleet\n"
         "from repro.fleet.spec import RunSpec\n"
         "spec = RunSpec.wan(test=2, receivers=3, bandwidth_bps=10e6, "
         "seed=21, nbytes=60_000, health=True)\n"
         "summary = Fleet(cache_dir=None).run_specs([spec])"
         "[spec.content_hash()]\n"
         "assert summary.ok and summary.health['group_size'] == 3\n"
         f"extra = under({INSTRUMENTS!r})\n"
         "assert not extra, extra\n"
         "import repro.harness.cli as cli\n"
         "from repro.obs.observer import Observability\n"
         "from repro.obs.spans import SpanCollector\n"
         "from repro.trace.tracer import PacketTracer\n"
         "def refuse(self, *args, **kwargs):\n"
         "    raise AssertionError(f'{type(self).__name__} built')\n"
         "for cls in (Observability, SpanCollector, PacketTracer):\n"
         "    cls.__init__ = refuse\n"
         "assert quietly(cli.main, ['health', 'report', 'wan', "
         "'--receivers', '3', '--nbytes', '60000', '--seed', '21']) == 0\n")
