"""Deterministic stack sampling and flamegraph export.

Classic profilers sample on a wall-clock alarm, which makes every run's
sample set different.  The observatory instead samples on the engine's
*event counter*: :class:`~repro.obs.profiler.SimProfiler` hands
every Nth executed callback to :meth:`StackSampler.run`, which traces
the callback's full Python call tree with :func:`sys.setprofile` and
charges self-wall time to each stack.  Because N counts simulated
events, the *set of sampled callbacks* is identical across repeated
runs of the same scenario -- only the nanosecond weights vary with
machine noise -- so flamegraphs are comparable run-to-run and the
collapsed output diffable.

Stacks are rooted ``engine;<event-class>;<site>;...frames`` so the
flamegraph's first level is the tax table and each class unfolds into
the code that bills it.  Export is the standard collapsed format
(``semicolon;separated;stack <weight>``, one line per stack, weight in
microseconds) consumable by external flamegraph tooling, plus a
self-contained SVG renderer for the HTML report.
"""

from __future__ import annotations

import gc
import sys
from time import perf_counter_ns
from typing import Callable
from zlib import crc32

__all__ = ["StackSampler", "flamegraph_svg"]


def _frame_label(frame) -> str:
    code = frame.f_code
    module = frame.f_globals.get("__name__", "") or ""
    qualname = getattr(code, "co_qualname", None) or code.co_name
    leaf = module.rsplit(".", 1)[-1]
    return f"{leaf}.{qualname}" if leaf else qualname


class StackSampler:
    """Event-count-triggered call-tree sampler.

    ``sample_every=N`` samples callbacks 0, N, 2N, ... of the engine's
    execution sequence.  Each sampled callback runs under a profile
    hook that attributes self-wall nanoseconds to the live stack at
    every call/return transition, accumulated into
    ``stacks[(root, class, site, *frames)] -> ns``.
    """

    def __init__(self, sample_every: int = 16, max_stacks: int = 50_000):
        if sample_every <= 0:
            raise ValueError("sample_every must be positive")
        self.sample_every = int(sample_every)
        self.max_stacks = int(max_stacks)
        self.stacks: dict[tuple, int] = {}
        self.samples = 0
        self.dropped_ns = 0      # charge lost to the max_stacks cap

    def _charge(self, base: tuple, frames: list, ns: int) -> None:
        # zero-ns deltas (clock granularity) still record the key: the
        # *set* of stacks must depend only on the sampled event set,
        # never on how the wall clock quantized a fast transition
        key = base + tuple(frames)
        have = self.stacks.get(key)
        if have is not None:
            self.stacks[key] = have + ns
        elif len(self.stacks) < self.max_stacks:
            self.stacks[key] = ns
        else:
            self.dropped_ns += ns

    def run(self, event_class: str, site: str,
            callback: Callable, args: tuple) -> None:
        """Execute ``callback(*args)`` with stack attribution."""
        base = ("engine", event_class, site)
        frames: list[str] = []
        charge = self._charge
        prev = perf_counter_ns()

        def hook(frame, event, arg):
            nonlocal prev
            now = perf_counter_ns()
            charge(base, frames, now - prev)
            if event == "call":
                frames.append(_frame_label(frame))
            elif event == "return" and frames:
                frames.pop()
            # c_call / c_return / c_exception: billed to the live stack
            prev = perf_counter_ns()

        # defer automatic GC for the duration of the sample: a cycle
        # landing mid-callback would run any registered gc.callbacks
        # (hypothesis installs one process-wide) whose Python frames
        # leak into the stack keys at a wall-clock-dependent point,
        # breaking the run-to-run key-set guarantee above -- and the
        # pause itself would be billed to whatever frame it interrupted
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        self.samples += 1
        sys.setprofile(hook)
        try:
            callback(*args)
        finally:
            sys.setprofile(None)
            charge(base, frames, perf_counter_ns() - prev)
            if gc_was_enabled:
                gc.enable()

    # -- export ----------------------------------------------------------

    def collapsed_lines(self) -> list[str]:
        """Collapsed-stack lines (sorted, hence deterministic given a
        deterministic sample set), weights in whole microseconds.

        The rendered lines are what is sorted: tuple order and line
        order differ once one frame name is a prefix of another."""
        return sorted(";".join(key) + f" {max(1, ns // 1000)}"
                      for key, ns in self.stacks.items())

    def write_collapsed(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.collapsed_lines():
                fh.write(line + "\n")


# -- SVG flamegraph ------------------------------------------------------

_CLASS_HUES = {
    "jiffy-timer": 28, "nak-repair-timer": 0, "nic-tx": 204, "nic-rx": 174,
    "link": 262, "process-wake": 96, "app": 130, "fleet-harness": 52,
    "other": 0,
}


def _fill(label: str, event_class: str) -> str:
    hue = _CLASS_HUES.get(event_class, 210)
    light = 52 + crc32(label.encode()) % 18   # stable per-frame variation
    sat = 60 if event_class != "other" else 0
    return f"hsl({hue},{sat}%,{light}%)"


class _Node:
    __slots__ = ("label", "total", "children")

    def __init__(self, label: str):
        self.label = label
        self.total = 0
        self.children: dict[str, _Node] = {}


def _build_tree(stacks: dict[tuple, int]) -> _Node:
    root = _Node("engine")
    for key in sorted(stacks):
        ns = stacks[key]
        root.total += ns
        node = root
        for label in key[1:]:    # key[0] is the shared "engine" root
            child = node.children.get(label)
            if child is None:
                child = node.children[label] = _Node(label)
            node = child
            node.total += ns
    return root


def flamegraph_svg(stacks: dict[tuple, int], *, width: int = 1000,
                   row_h: int = 17) -> str:
    """Render sampled stacks as a self-contained SVG flamegraph.

    Purely deterministic: sibling frames are laid out in sorted label
    order, colors derive from a CRC of the label, and no external
    assets or scripts are referenced.
    """
    root = _build_tree(stacks)
    if root.total <= 0:
        return "<svg xmlns='http://www.w3.org/2000/svg' width='10' height='10'/>"

    def depth_of(node: _Node) -> int:
        if not node.children:
            return 1
        return 1 + max(depth_of(c) for c in node.children.values())

    height = depth_of(root) * row_h + 4
    scale = width / root.total
    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' "
        f"height='{height}' font-family='monospace' font-size='11'>",
    ]

    def emit(node: _Node, x: float, depth: int, event_class: str) -> None:
        w = node.total * scale
        if w < 0.4:
            return
        y = height - (depth + 1) * row_h - 2
        pct = 100.0 * node.total / root.total
        label = node.label
        fill = _fill(label, event_class)
        parts.append(
            f"<g><title>{label} ({node.total // 1000} us, {pct:.1f}%)</title>"
            f"<rect x='{x:.1f}' y='{y}' width='{max(w - 0.5, 0.1):.1f}' "
            f"height='{row_h - 1}' fill='{fill}' rx='1'/>"
        )
        if w > 45:
            text = label if len(label) * 6.2 < w else label[:max(1, int(w / 6.2)) - 1] + "…"
            parts.append(f"<text x='{x + 3:.1f}' y='{y + row_h - 5}'>{text}</text>")
        parts.append("</g>")
        cx = x
        for child_label in sorted(node.children):
            child = node.children[child_label]
            # the class level sits directly under the root
            emit(child, cx, depth + 1,
                 child_label if depth == 0 else event_class)
            cx += child.total * scale

    emit(root, 0.0, 0, "other")
    parts.append("</svg>")
    return "".join(parts)
