"""R8: only the engine moves the clock.

``Simulator.now`` is a plain attribute -- it is read several times per
packet and a property cost a Python call each time -- so nothing at run
time stops model code from assigning it.  This rule keeps what the
property guaranteed: outside ``repro.sim.engine`` no statement stores
to or deletes an attribute named ``now`` (by assignment, augmented
assignment, unpacking, ``setattr`` or ``delattr``), on a simulator, a
host clock or anything else: the name is reserved for the clock.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis import policy
from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register


@register
class ClockWriteRule(Rule):
    id = "R8"
    title = "write to the simulation clock outside the engine"
    hint = ("time advances only in Simulator.run(): schedule with "
            "call_at/call_after, or shift one host's timers through "
            "HostClock.skew / stalled_until")

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not policy.clock_write_allowed(ctx)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                written = node.attr == "now" and \
                    isinstance(node.ctx, (ast.Store, ast.Del))
            else:
                written = (isinstance(node, ast.Call) and
                           isinstance(node.func, ast.Name) and
                           node.func.id in ("setattr", "delattr") and
                           len(node.args) > 1 and
                           isinstance(node.args[1], ast.Constant) and
                           node.args[1].value == "now")
            if written:
                yield self.found(
                    ctx, node,
                    f"'now' is written in {ctx.module}; only "
                    f"repro.sim.engine may move the simulation clock")
