"""What every invocation pays before it simulates anything.

Each check runs in a fresh interpreter and counts modules, never time:
an entry point may load only the code it runs, and no shared library
it does not use -- none maps OpenSSL, which `hashlib` would load for
digests `_blake2` gives without it.  Peak memory follows (DESIGN.md
§5g "Start-up budget" gives it per entry point).  The first check
reads the source instead: what any entry point can load at all is the
standard library and ``repro``.
"""

import ast
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: subsystems a bare H-RMC transfer never executes
NOT_ON_A_BARE_TRANSFER = (
    "repro.obs", "repro.trace", "repro.faults", "repro.baselines",
    "repro.fleet", "repro.core.rmc",
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


def test_the_package_imports_only_the_standard_library():
    """Every absolute import of every module under ``src/repro`` names
    ``repro`` or a standard-library module: running the reproduction
    needs nothing but the interpreter."""
    root = os.path.join(SRC, "repro")
    outside = []
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    tops = [a.name.split(".")[0] for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    tops = [node.module.split(".")[0]]
                else:
                    continue
                outside += [f"{os.path.relpath(path, SRC)}:{node.lineno} "
                            f"{top}" for top in tops
                            if top != "repro"
                            and top not in sys.stdlib_module_names]
    assert not outside, outside


def test_listing_experiments_does_not_import_a_process_pool():
    """`multiprocessing` and `concurrent.futures` (~20 ms of a 120 ms
    `--list`) are imported only where the fleet builds a pool, which
    `--list` never does."""
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


def test_a_baseline_transfer_loads_only_its_own_protocol():
    """A polling or ACK transfer loads the baselines' shared transport
    and its own protocol module, and none of the other baselines."""
    for protocol in ("polling", "ack"):
        _run("from repro.harness.runner import run_transfer\n"
             "from repro.workloads import build_lan\n"
             "result = run_transfer(build_lan(2, 10e6, seed=1), "
             f"nbytes=20_000, protocol={protocol!r})\n"
             "assert result.ok\n"
             "loaded = under(('repro.baselines',))\n"
             "assert loaded == sorted(['repro.baselines', "
             f"'repro.baselines.common', 'repro.baselines.{protocol}']), "
             "loaded\n")


def test_listing_experiments_loads_no_experiment_code():
    _run("from repro.harness import cli\n"
         "assert quietly(cli.main, ['--list']) == 0\n"
         "extra = under(('repro.harness.experiments', 'repro.fleet', "
         "'repro.faults'))\n"
         "assert not extra, extra\n")


def test_the_cli_import_is_exactly_what_report_runs():
    """`report` runs on what `import repro.harness.cli` loaded -- the
    benchmark profiles main() after that import, so a module the command
    loaded itself would be charged to no layer -- and that import holds
    nothing `report` does not run."""
    _run("import repro.harness.cli as cli\n"
         "extra = under(('repro.harness.experiments', 'repro.fleet', "
         "'repro.faults', 'repro.baselines', 'repro.core.rmc'))\n"
         "assert not extra, extra\n"
         "before = set(sys.modules)\n"
         "rc = quietly(cli.main, ['report', 'lan', '--receivers', '2', "
         "'--nbytes', '50000'])\n"
         "assert rc == 0\n"
         "added = sorted(m for m in set(sys.modules) - before "
         "if m.startswith('repro'))\n"
         "assert not added, added\n")


def test_a_single_chaos_run_loads_no_experiment_code():
    """`report chaos`, seeded or under a saved plan, builds its run from
    the spec module's chaos cell, not from the experiment suites."""
    _run("import repro.harness.cli as cli\n"
         "from repro.faults.plan import FaultPlan\n"
         "import tempfile\n"
         "plan = os.path.join(tempfile.mkdtemp(), 'plan.json')\n"
         "FaultPlan.random(3, n_receivers=3, horizon_us=1_000_000)"
         ".save(plan)\n"
         "assert quietly(cli.main, ['report', 'chaos', '--receivers', '2', "
         "'--nbytes', '50000']) == 0\n"
         "assert quietly(cli.main, ['report', 'chaos', '--fault-plan', "
         "plan, '--receivers', '3', '--nbytes', '50000']) == 0\n"
         "extra = under(('repro.harness.experiments', 'repro.fleet'))\n"
         "assert not extra, extra\n")


def test_an_experiment_cell_loads_no_observer():
    """An unobserved fleet cell -- what every experiment runs -- never
    loads the observability layer."""
    _run("from repro.fleet.executor import Fleet\n"
         "from repro.workloads.spec import RunSpec\n"
         "from repro.harness.experiments import run_experiments\n"
         "spec = RunSpec.lan(2, 10e6, seed=1, nbytes=20_000)\n"
         "summary = Fleet(cache_dir=None).run_specs([spec])"
         "[spec.content_hash()]\n"
         "assert summary.ok\n"
         "extra = under(('repro.obs',))\n"
         "assert not extra, extra\n")


#: one entry point per fresh interpreter: what each runs
ENTRY_POINTS = {
    "--list": "from repro.harness import cli\n"
              "assert quietly(cli.main, ['--list']) == 0\n",
    "report": "from repro.harness import cli\n"
              "assert quietly(cli.main, ['report', 'lan', '--receivers', "
              "'2', '--nbytes', '50000']) == 0\n",
    "run_transfer": "from repro.harness.runner import run_transfer\n"
                    "from repro.workloads import build_lan\n"
                    "assert run_transfer(build_lan(2, 10e6, seed=1), "
                    "nbytes=20_000).ok\n",
    "fleet cell": "from repro.fleet.executor import Fleet\n"
                  "from repro.workloads.spec import RunSpec\n"
                  "spec = RunSpec.lan(2, 10e6, seed=1, nbytes=20_000)\n"
                  "assert Fleet(cache_dir=None).run_specs([spec])"
                  "[spec.content_hash()].ok\n",
    "code_fingerprint": "from repro.fleet.fingerprint import "
                        "code_fingerprint\n"
                        "assert len(code_fingerprint()) == 32\n",
}


def test_no_entry_point_maps_openssl():
    """`import hashlib` loads `_hashlib`, which maps OpenSSL's libcrypto
    (about 3 MB resident, a sixth of a `report` process) for nothing:
    the three BLAKE2b digests come from `_blake2`, which is what
    `hashlib.blake2b` is (tests/fleet/test_digests.py)."""
    for name, code in ENTRY_POINTS.items():
        _run(code + "mapped = [m for m in ('_hashlib', '_ssl') "
             "if m in sys.modules]\n"
             f"assert not mapped, ({name!r}, mapped)\n")


#: what watching a run takes, and reading its health does not
INSTRUMENTS = ("repro.obs.profiler", "repro.trace.tracer")


def test_reading_health_attaches_nothing():
    """Protocol health is a read of the run record's books: a fleet
    cell loads no observer or tracer, nor does the CLI import, which
    holds what `report` runs, and neither is built once they are
    loaded."""
    _run("from repro.fleet.executor import Fleet\n"
         "from repro.workloads.spec import RunSpec\n"
         "spec = RunSpec.wan(test=2, receivers=3, bandwidth_bps=10e6, "
         "seed=21, nbytes=60_000)\n"
         "summary = Fleet(cache_dir=None).run_specs([spec])"
         "[spec.content_hash()]\n"
         "assert summary.ok and len(summary.books['receivers']) == 3\n"
         f"extra = under({INSTRUMENTS!r})\n"
         "assert not extra, extra\n"
         "import repro.harness.cli\n"
         f"extra = under({INSTRUMENTS!r})\n"
         "assert not extra, extra\n"
         "from repro.fleet.worker import run_spec\n"
         "from repro.obs.health import payload\n"
         "from repro.obs.profiler import Observability\n"
         "from repro.trace.tracer import PacketTracer\n"
         "def refuse(self, *args, **kwargs):\n"
         "    raise AssertionError(f'{type(self).__name__} built')\n"
         "for cls in (Observability, PacketTracer):\n"
         "    cls.__init__ = refuse\n"
         "assert payload(run_spec(spec)) == payload(summary)\n")
