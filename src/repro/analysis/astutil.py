"""Small AST helpers shared by the rules.

The central piece is :class:`ImportMap`: rules match *what a name
resolves to*, not its surface spelling, so ``import time as t; t.time()``
and ``from time import time as now; now()`` are both caught.
"""

from __future__ import annotations

import ast
from typing import Iterator

__all__ = ["ImportMap", "dotted_name", "walk_scoped", "call_name",
           "is_generator_fn", "FunctionDefLike"]

FunctionDefLike = (ast.FunctionDef, ast.AsyncFunctionDef)


class ImportMap:
    """Maps local names to the fully-qualified things they import.

    ``import time as t``           ->  t: "time"
    ``from time import time``      ->  time: "time.time"
    ``from datetime import datetime as dt`` -> dt: "datetime.datetime"
    """

    def __init__(self, tree: ast.Module) -> None:
        self.names: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self.names[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports: out of scope
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.names[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> str | None:
        """Fully-qualified dotted name for a Name/Attribute expression,
        resolving the leading segment through the import table."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        base = self.names.get(head)
        if base is None:
            return None
        return f"{base}.{rest}" if rest else base


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for nested Attribute/Name chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str | None:
    return dotted_name(node.func)


def is_generator_fn(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True if ``fn`` itself contains yield (ignoring nested defs)."""
    for node in walk_scoped(fn):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def walk_scoped(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk ``fn``'s body without descending into nested function or
    class definitions (lambdas are descended: they share the frame's
    determinism obligations and cannot contain yield)."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (*FunctionDefLike, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))
