"""The protocol keeps its own books; it does not know it is watched.

Protocol health is read from counters the H-RMC roles keep as plain
ints, always on, after the run.  A health hook in the simulated stack
(a ``health`` slot, a probe call, a comment promising one) or an
import of the observability layer from ``repro.core`` would bring the
probe back, so both fail here.

The network and kernel models report each segment sent, received or
dropped at one per-run packet seam, ``Simulator.tap``.  The engine has
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
