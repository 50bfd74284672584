"""The protocol keeps its own books; it does not know it is watched.

Protocol health is read from counters the H-RMC roles keep as plain
ints, always on, after the run.  A health hook in the simulated stack
(a ``health`` slot, a probe call, a comment promising one) or an
import of the observability layer from ``repro.core`` would bring the
probe back, so both fail here.

The network and kernel models report each segment sent, received or
dropped at one per-run packet seam, ``Simulator.tap``, and the protocol
reports the gaps it claims and the repairs it queues there too; none of
them names the causal recorder that subscribes to it.  The engine has
one event hook, ``Simulator.watch``, and names no observer behind it.
A per-host tap, a ``lineage`` reference in the stack or a ``profiler``
in the engine would bring a second path back.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

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


_LINEAGE = re.compile(r"\blineage\b")


def _naming(pattern, *packages):
    return [f"{path.relative_to(SRC)}:{lineno}"
            for path in _sources(*packages)
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]


def test_net_and_kernel_never_name_lineage_outside_the_host_clock():
    hits = _naming(_LINEAGE, "net", "kernel")
    assert not hits, hits


def test_protocol_and_engine_never_name_lineage():
    hits = _naming(_LINEAGE, "core", "sim")
    assert not hits, hits


def test_the_engine_never_names_the_profiler():
    hits = _naming(re.compile(r"\bprofiler\b"), "sim")
    assert not hits, hits


def test_nothing_reads_a_lineage_off_the_simulator():
    hits = _naming(re.compile(r"\b_?sim\.lineage\b|"
                              r"getattr\([\w.]*sim, [\'\"]lineage"), "")
    assert not hits, hits


def test_host_sets_no_tap():
    host = SRC / "kernel" / "host.py"
    hits = [node.lineno for node in ast.walk(ast.parse(host.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "tap"
            and isinstance(node.ctx, ast.Store)]
    assert not hits, hits
