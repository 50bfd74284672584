"""The protocol keeps its own books; it does not know it is watched.

Protocol health is read from counters the H-RMC roles keep as plain
ints, always on, after the run.  A health hook in the simulated stack
(a ``health`` slot, a probe call, a comment promising one) or an
import of the observability layer from ``repro.core`` would bring the
probe back, so both fail here.

The network and kernel models report each segment sent, received or
dropped at one per-run packet seam, ``Simulator.tap``; a drop goes
through ``Simulator.drop``, which counts it in the run's ledger and
then reports it, so a site that called ``tap`` with a drop reason of
its own would be seen by subscribers and missing from
``drop_summary``.  The engine has
one event hook, ``Simulator.watch``, and names no observer behind it.
A per-host tap or a ``profiler`` in the engine would bring a second
path back, and a ``cause``, ``blame`` or ``fault_cause`` slot on an
entry, packet, skb or fault surface would bring back the bookkeeping
of a causal recorder.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: the simulated stack: protocol, network, kernel model, engine
STACK = ("core", "net", "kernel", "sim")

_HEALTH = re.compile(r"\bhealth\b")


def _sources(*packages):
    for package in packages:
        yield from sorted((SRC / package).rglob("*.py"))


def test_the_stack_never_names_health():
    hits = [f"{path.relative_to(SRC)}:{lineno}"
            for path in _sources(*STACK)
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if _HEALTH.search(line)]
    assert not hits, hits


def test_core_imports_no_observability():
    hits = []
    for path in _sources("core"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            hits += [f"{path.relative_to(SRC)}:{node.lineno} {name}"
                     for name in names
                     if name == "repro.obs" or name.startswith("repro.obs.")]
    assert not hits, hits


def _naming(pattern, *packages):
    return [f"{path.relative_to(SRC)}:{lineno}"
            for path in _sources(*packages)
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]


def test_the_stack_and_faults_carry_no_lineage_slots():
    hits = _naming(re.compile(r"\b(cause|blame|fault_cause)\b"),
                   *STACK, "faults")
    assert not hits, hits


def test_the_engine_never_names_the_profiler():
    hits = _naming(re.compile(r"\bprofiler\b"), "sim")
    assert not hits, hits


def test_host_sets_no_tap():
    host = SRC / "kernel" / "host.py"
    hits = [node.lineno for node in ast.walk(ast.parse(host.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "tap"
            and isinstance(node.ctx, ast.Store)]
    assert not hits, hits



def tap_calls_without_traffic(source, label="<source>", exempt=()):
    """``label:line`` of each ``tap(...)`` / ``<x>.tap(...)`` call in
    ``source`` whose first argument is not the literal ``"tx"`` or
    ``"rx"``, outside the functions named in ``exempt``."""
    tree = ast.parse(source)
    allowed = {id(node) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name in exempt
               for node in ast.walk(fn)}
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in allowed:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name != "tap":
            continue
        first = node.args[0] if node.args else None
        if not (isinstance(first, ast.Constant) and
                first.value in ("tx", "rx")):
            hits.append(f"{label}:{node.lineno}")
    return sorted(hits, key=lambda hit: int(hit.rsplit(":", 1)[1]))


def test_every_drop_goes_through_the_ledger():
    """A site reports tx and rx itself; a drop is ``Simulator.drop``,
    the one call that hands the seam anything else."""
    engine = SRC / "sim" / "engine.py"
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        hits += tap_calls_without_traffic(
            path.read_text(), str(path.relative_to(SRC)),
            exempt=("drop",) if path == engine else ())
    assert not hits, hits


def test_the_drop_guard_tells_traffic_from_a_drop():
    source = (
        "def send(self, pkt):\n"
        "    tap = self.sim.tap\n"
        "    if tap is not None:\n"
        "        tap('tx', self.addr, pkt)\n"
        "    self.sim.tap('rx', self.addr, pkt)\n"
        "    tap('x', self.addr, pkt)\n"
        "    self.sim.tap(why, self.name, pkt)\n"
        "def drop(self, reason, where, pkt):\n"
        "    self.tap(reason, where, pkt)\n")
    assert tap_calls_without_traffic(source) == \
        ["<source>:6", "<source>:7", "<source>:9"]
    assert tap_calls_without_traffic(source, exempt=("drop",)) == \
        ["<source>:6", "<source>:7"]
