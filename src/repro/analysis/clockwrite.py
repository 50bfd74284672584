"""R8: only the engine moves the clock.

``Simulator.now`` is a plain attribute -- it is read several times per
packet and a property cost a Python call each time -- so nothing at run
time stops model code from assigning it.  This rule keeps what the
property guaranteed: outside ``repro.sim.engine`` no statement stores
to or deletes an attribute named ``now`` (by assignment, augmented
assignment, unpacking, ``setattr`` or ``delattr``), on a simulator, a
host clock or anything else: the name is reserved for the clock.

Tier-1 does not see this hazard: a host pause that advanced
``sim.now`` instead of the host's CPU passed every test under two hash
seeds (DESIGN.md §5f).
"""

from __future__ import annotations

import ast
from typing import Iterator

__all__ = ["RULE", "TITLE", "HINT", "CLOCK_WRITE_ALLOWED", "check"]

RULE = "R8"
TITLE = "write to the simulation clock outside the engine"
HINT = ("time advances only in Simulator.run(): schedule with "
        "call_at/call_after, or shift one host's timers through "
        "HostClock.skew / stalled_until")

#: the one module that assigns ``now``: the engine's run loop
CLOCK_WRITE_ALLOWED = ("repro.sim.engine",)


def check(tree: ast.Module, module: str) -> Iterator[tuple[ast.AST, str]]:
    """Every node of ``tree`` that writes ``now``, with its message."""
    if module in CLOCK_WRITE_ALLOWED:
        return
    for node in ast.walk(tree):
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
            yield node, (f"'now' is written in {module}; only "
                         f"repro.sim.engine may move the simulation clock")
