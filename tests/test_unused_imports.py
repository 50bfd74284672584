"""No file under ``tests/`` or ``examples/`` imports a name it never uses.

The lint job runs ruff over ``src/repro`` only, so a dead import in a
test or an example -- often the last trace of a deleted module or
helper -- would stay there unflagged.  This walks each file's syntax
tree: a name bound by a module-level ``import`` must be read somewhere
in the same file, taken as a parameter name (a pytest fixture imported
from a conftest is used that way) or listed in ``__all__``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
CHECKED = ("tests", "examples")


def _bound_names(stmt):
    if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
        return []
    names = []
    for alias in stmt.names:
        if alias.name == "*":
            continue
        if alias.asname:
            names.append(alias.asname)
        elif isinstance(stmt, ast.Import):
            names.append(alias.name.split(".")[0])
        else:
            names.append(alias.name)
    return names


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used.add(node.arg)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(e.value for e in ast.walk(node.value)
                        if isinstance(e, ast.Constant) and
                        isinstance(e.value, str))
    return used


def unused_imports(source, label="<source>"):
    """``label:line name`` of each module-level import nothing uses."""
    tree = ast.parse(source)
    used = _used_names(tree)
    return [f"{label}:{stmt.lineno} {name}"
            for stmt in tree.body
            if isinstance(stmt, (ast.Import, ast.ImportFrom))
            for name in _bound_names(stmt) if name not in used]


def test_no_test_or_example_imports_a_name_it_never_uses():
    hits = [hit for top in CHECKED
            for path in sorted((ROOT / top).rglob("*.py"))
            for hit in unused_imports(path.read_text(),
                                      str(path.relative_to(ROOT)))]
    assert not hits, hits


def test_the_check_tells_a_used_import_from_a_dead_one():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path as osp\n"
              "from json import dumps, loads\n"
              "from tests.conftest import sim\n"
              "def f(sim):\n"
              "    return os.sep, dumps\n")
    assert unused_imports(source) == ["<source>:3 osp", "<source>:4 loads"]
