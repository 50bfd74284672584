"""R3: no module-global mutable state in protocol packages.

The PR 4 bug class: a module-level packet-id counter survived from one
run to the next inside a fleet worker process, so the packet stream --
and therefore the content-addressed cache key's *value* -- depended on
which runs the worker had executed before.  All per-run state must hang
off an object created per run (usually the ``Simulator``).

Two detectors:

* a module-level binding of an obviously mutable value (list/dict/set
  displays and comprehensions, ``list()``/``dict()``/``set()``/
  ``defaultdict()``/``deque()``/``Counter()``/``itertools.count()``/
  ``bytearray()`` calls) to a non-dunder name;
* any ``global`` statement in a function body -- rebinding a module
  name at runtime is the counter pattern itself.

``__all__``-style dunders are exempt; tuples and ``frozenset`` never
match (immutable is fine: that is the fix, not the bug).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis import policy
from repro.analysis.astutil import ImportMap, dotted_name
from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register

_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray",
    "collections.defaultdict", "collections.deque", "collections.Counter",
    "collections.OrderedDict", "itertools.count",
})

_MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp,
                     ast.DictComp, ast.SetComp)


@register
class GlobalStateRule(Rule):
    id = "R3"
    title = "module-global mutable state in a protocol package"
    hint = ("hang per-run state off an object created per run (keep "
            "such state on the Simulator); module globals leak state "
            "between runs inside one worker process")

    def applies_to(self, ctx: ModuleContext) -> bool:
        return policy.global_state_scoped(ctx)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        for stmt in ctx.tree.body:
            yield from self._check_module_binding(ctx, imports, stmt)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Global):
                names = ", ".join(node.names)
                yield self.found(
                    ctx, node,
                    f"'global {names}' rebinds module state at runtime "
                    f"(the PR 4 packet-id-counter pattern)")

    def _check_module_binding(self, ctx: ModuleContext, imports: ImportMap,
                              stmt: ast.stmt) -> Iterator[Finding]:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            return
        names = [t.id for t in targets
                 if isinstance(t, ast.Name) and not _is_dunder(t.id)]
        if not names:
            return
        why = self._mutable_value(imports, value)
        if why is not None:
            yield self.found(
                ctx, stmt,
                f"module-global '{', '.join(names)}' binds mutable "
                f"{why} at import time")

    def _mutable_value(self, imports: ImportMap,
                       value: ast.expr) -> str | None:
        if isinstance(value, _MUTABLE_DISPLAYS):
            return type(value).__name__.lower().replace("comp",
                                                        " comprehension")
        if isinstance(value, ast.Call):
            name = imports.resolve(value.func) or dotted_name(value.func)
            if name in _MUTABLE_CALLS:
                return f"{name}(...)"
        return None


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")
