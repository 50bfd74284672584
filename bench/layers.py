"""Per-layer attribution of a cProfile run, and the benchmark's spans.

A layer is a package under src/repro/.  A function belongs to the
layer its file is in.  A builtin or stdlib function has no file under
src/repro/, so each of its calls (and the self time of that call) is
charged to the layer of the function that called it directly, read
from the profiler's caller -> callee edges.  What is left (stdlib
called from stdlib, the benchmark's own frames) stays unattributed and
is what `trace.coverage` is short of 1.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(ROOT, "src", "repro") + os.sep
_BENCH = os.path.join(ROOT, "bench") + os.sep

LAYERS = ("sim", "net", "kernel", "core", "apps", "harness", "fleet",
          "obs", "trace", "stats", "workloads")

#: metric stem -> "module:qualname" of the function whose calls it counts
NAMED = {
    "sim.schedules": "repro.sim.engine:Simulator.call_at",
    "sim.cancels": "repro.sim.engine:Simulator.cancel",
    "sim.timer_rearms": "repro.sim.timer:Timer.mod_timer",
    "sim.process_resumes": "repro.sim.process:Process._resume",
    "kernel.cpu_runs": "repro.kernel.host:Host.cpu_run",
}


def layer_of(code) -> str | None:
    """Layer of a profiler entry's code: a package of src/repro/,
    "bench" for this package, None for builtins and everything else."""
    if isinstance(code, str):           # builtin
        return None
    path = code.co_filename
    if path.startswith(_SRC):
        head, sep, _ = path[len(_SRC):].partition(os.sep)
        return head if sep else "repro"
    return "bench" if path.startswith(_BENCH) else None


def _resolve(target: str):
    """The function "module:Class.attr" names, or None if it is gone."""
    module, _, qualname = target.partition(":")
    try:
        obj = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return None
    return obj


def attribute(stats) -> dict:
    """Fold `cProfile.Profile.getstats()` into per-layer totals.

    Call counts are exact integers and repeat from run to run; times
    are as the profiler measured them.
    """
    self_s: Counter = Counter()
    calls: Counter = Counter()
    calls_in: Counter = Counter()
    by_code = {}
    total_s = 0.0
    total_calls = 0
    for entry in stats:
        total_s += entry.inlinetime
        total_calls += entry.callcount
        layer = layer_of(entry.code)
        if layer is None:
            continue
        by_code[entry.code] = entry.callcount
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
        for edge in entry.calls or ():
            callee = layer_of(edge.code)
            if callee is None:
                self_s[layer] += edge.inlinetime
                calls[layer] += edge.callcount
            elif callee != layer:
                calls_in[callee] += edge.callcount
    named = {}
    for stem, target in NAMED.items():
        fn = _resolve(target)
        code = getattr(fn, "__code__", None)
        # None: the function no longer exists; 0: it exists, never ran
        named[stem] = None if code is None else by_code.get(code, 0)
    covered = sum(s for layer, s in self_s.items() if layer != "bench")
    return {"self_s": dict(self_s), "calls": dict(calls),
            "calls_in": dict(calls_in), "named": named,
            "total_s": total_s, "total_calls": total_calls,
            "coverage": covered / total_s if total_s else 0.0}


class Spans:
    """Parent/child spans around the benchmark's own calls into the
    program, kept in memory and handed back when the run ends."""

    def __init__(self) -> None:
        self.rows: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        row = {"id": len(self.rows), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start_s": time.perf_counter(), "end_s": None}
        self.rows.append(row)
        self._open.append(row["id"])
        try:
            yield row
        finally:
            row["end_s"] = time.perf_counter()
            self._open.pop()

    def duration(self, name: str) -> float:
        return sum(r["end_s"] - r["start_s"] for r in self.rows
                   if r["name"] == name)
