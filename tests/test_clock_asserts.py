"""No test asserts on a clock.

A duration or a speed-up measured inside the suite gives a different
verdict on a fast, a slow and a loaded host.  Host cost is asserted as
a count (calls per packet, events, modules loaded); wall time is judged
by the benchmark's paired runs, outside the suite.  This lint fails on
any ``assert`` whose expression reads a clock, or reads a name bound
from a clock read in the same function.
"""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent

#: clock reads by attribute (``time.perf_counter()``) or bare name
#: (``perf_counter()`` after ``from time import perf_counter``)
_CLOCKS = frozenset({"perf_counter", "perf_counter_ns", "monotonic",
                     "monotonic_ns", "process_time", "process_time_ns"})


def _reads_clock(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        fn = sub.func
        if isinstance(fn, ast.Name) and fn.id in _CLOCKS:
            return True
        if isinstance(fn, ast.Attribute) and (
                fn.attr in _CLOCKS
                or (fn.attr == "time" and isinstance(fn.value, ast.Name)
                    and fn.value.id == "time")):
            return True
    return False


def _names(node: ast.AST) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _bound(target: ast.AST) -> set:
    """Names an assignment target binds (``a``, ``a, b``; not the
    ``self`` of ``self.a``)."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        return set().union(*map(_bound, target.elts))
    return set()


def _clock_asserts(nodes: list) -> list:
    """Line numbers of the asserts among ``nodes`` (one scope) that read
    a clock, directly or through names bound, transitively, from a
    clock read."""
    bindings = []
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) \
                and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            bindings.append((set().union(*map(_bound, targets)), node.value))
    timed: set = set()
    changed = True
    while changed:
        changed = False
        for targets, value in bindings:
            if not targets <= timed and (_reads_clock(value)
                                         or _names(value) & timed):
                timed |= targets
                changed = True
    return [node.lineno for node in nodes
            if isinstance(node, ast.Assert)
            and (_reads_clock(node.test) or _names(node.test) & timed)]


def clock_asserts(source: str) -> list:
    """Offending assert lines of a module; each function body and the
    module body is one scope (a nested function is its own)."""
    tree = ast.parse(source)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    scopes = [tree.body] + [node.body for node in ast.walk(tree)
                            if isinstance(node, defs[:2])]
    found = []
    for body in scopes:
        nodes = []
        stack = [stmt for stmt in body if not isinstance(stmt, defs)]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(child for child in ast.iter_child_nodes(node)
                         if not isinstance(child, defs))
        found += _clock_asserts(nodes)
    return sorted(found)


def test_the_lint_sees_direct_and_bound_clock_reads():
    source = (
        "import time\n"
        "from time import perf_counter\n"
        "def test_direct():\n"
        "    assert time.time() > 0\n"
        "def test_bound():\n"
        "    t0 = perf_counter()\n"
        "    elapsed = perf_counter() - t0\n"
        "    ratio = elapsed / 2\n"
        "    assert ratio < 1.0\n"
        "def test_count():\n"
        "    n = len([1, 2])\n"
        "    deadline = time.monotonic() + 5\n"
        "    assert n == 2\n")
    assert clock_asserts(source) == [4, 9]


def test_no_test_asserts_on_a_clock():
    offenders = []
    for path in sorted(TESTS.rglob("*.py")):
        for line in clock_asserts(path.read_text()):
            offenders.append(f"{path.relative_to(TESTS)}:{line}")
    assert not offenders, (
        "assert on a clock reading (host-speed dependent): "
        + ", ".join(offenders))
