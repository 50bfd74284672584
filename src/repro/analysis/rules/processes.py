"""R6: generator-process discipline.

Sim processes are generator functions driven by
:class:`repro.sim.process.Process`.  Two bug shapes:

* **bare call** -- ``sender_app(sock, n)`` as a statement creates the
  generator and silently discards it; the process never runs.  Must be
  ``Process(sim, sender_app(...))`` or ``yield from sender_app(...)``.
* **wrong awaitable** -- a process may ``yield`` only sim awaitables
  (``Delay``, a ``SimEvent``); yielding a constant or a wall-time call
  like ``time.sleep(...)`` either kills the process with a TypeError at
  runtime or -- worse -- blocks the whole engine on the host clock.

A function counts as a *process generator* when it is a generator and
either yields a ``Delay``/``SimEvent`` constructor call somewhere or is
named like one (``*_app``, ``*_proc``, ``*_process``).  The yield
checks look only at those, so unrelated utility generators (trace
iterators etc.) are untouched.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import (ImportMap, dotted_name,
                                    is_generator_fn, walk_scoped)
from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register
from repro.analysis.rules.wallclock import WALLCLOCK_CALLS

_AWAITABLE_CTORS = frozenset({"Delay", "SimEvent"})
_PROCESS_NAME_SUFFIXES = ("_app", "_proc", "_process")
_BLOCKING_CALLS = frozenset({"time.sleep"}) | WALLCLOCK_CALLS


@register
class ProcessDisciplineRule(Rule):
    id = "R6"
    title = "generator-process discipline violation"
    hint = ("schedule process generators via Process(sim, fn(...)) or "
            "compose with 'yield from'; inside one, yield only Delay/"
            "SimEvent awaitables")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        gen_fns = {node.name: node for node in ast.walk(ctx.tree)
                   if isinstance(node, ast.FunctionDef)
                   and is_generator_fn(node)}
        yield from self._check_bare_calls(ctx, gen_fns)
        for fn in gen_fns.values():
            if self._is_process_generator(fn):
                yield from self._check_yields(ctx, imports, fn)

    # -- bare calls -------------------------------------------------------

    def _check_bare_calls(self, ctx: ModuleContext,
                          gen_fns: dict[str, ast.FunctionDef]) -> \
            Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Expr) and
                    isinstance(node.value, ast.Call)):
                continue
            func = node.value.func
            if isinstance(func, ast.Name) and func.id in gen_fns:
                yield self.found(
                    ctx, node,
                    f"generator '{func.id}' called bare: the call "
                    f"builds a generator and discards it, so the "
                    f"process never runs")

    # -- yield discipline -------------------------------------------------

    def _is_process_generator(self, fn: ast.FunctionDef) -> bool:
        if fn.name.endswith(_PROCESS_NAME_SUFFIXES):
            return True
        for node in walk_scoped(fn):
            if isinstance(node, ast.Yield) and \
                    isinstance(node.value, ast.Call):
                name = dotted_name(node.value.func)
                if name in _AWAITABLE_CTORS:
                    return True
        return False

    def _check_yields(self, ctx: ModuleContext, imports: ImportMap,
                      fn: ast.FunctionDef) -> Iterator[Finding]:
        for node in walk_scoped(fn):
            if isinstance(node, ast.YieldFrom):
                yield from self._check_blocking(ctx, imports, node.value,
                                                "yield from")
                continue
            if not isinstance(node, ast.Yield):
                continue
            value = node.value
            if value is None:
                yield self.found(
                    ctx, node,
                    f"bare 'yield' in process generator '{fn.name}' "
                    f"yields None, which the engine rejects")
            elif isinstance(value, ast.Constant):
                yield self.found(
                    ctx, node,
                    f"process generator '{fn.name}' yields constant "
                    f"{value.value!r}; only Delay/SimEvent awaitables "
                    f"are schedulable")
            elif isinstance(value, ast.Call):
                yield from self._check_blocking(ctx, imports, value,
                                                "yield")

    def _check_blocking(self, ctx: ModuleContext, imports: ImportMap,
                        value: ast.expr, how: str) -> Iterator[Finding]:
        if not isinstance(value, ast.Call):
            return
        resolved = imports.resolve(value.func) or dotted_name(value.func)
        if resolved in _BLOCKING_CALLS:
            yield self.found(
                ctx, value,
                f"'{how} {resolved}(...)' blocks on the host, not "
                f"simulated time; use Delay(us)")
