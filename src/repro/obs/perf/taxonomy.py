"""Stable event-class taxonomy for engine callbacks.

The tax table of the performance observatory attributes every executed
engine callback to one of a small, *stable* set of event classes -- the
vocabulary in which ROADMAP item 1 (the engine hot-path overhaul) makes
its scheduler decisions.  Classes must not churn: two tax tables
compare only in one vocabulary, so they live here as a frozen tuple:

``jiffy-timer``
    Periodic protocol ticks driven off the 10 ms jiffy machinery
    (transmit, update, keepalive, liveness, polling rounds).  The
    dominant class in steady state and the candidate for a timing-wheel
    scheduler.
``nak-repair-timer``
    Loss-recovery timers and repair emission (NAK backoff, RTO,
    retransmission ticks, repair subcasts).
``nic-tx`` / ``nic-rx``
    Device-model work: transmit-ring completions and host-side
    transmit CPU on the way down; RX-ring enqueue/drain/protocol
    delivery on the way up.
``link``
    Medium propagation: the one fan-out event a broadcast schedules
    (it walks every attached NIC, so address filtering and RX-ring
    enqueue of an idle ring bill here), plus router/pipe
    store-and-forward steps.
``process-wake``
    :class:`~repro.sim.process.SimEvent` fires scheduled as engine
    callbacks.  None in the stock scenarios since CPU work resumes its
    process directly.
``app``
    Application generator resumes (file-transfer sender/receiver
    loops, disk model), including resumes that are a CPU-completion
    event (``Host.cpu_exec``).
``fleet-harness``
    Everything the harness itself schedules around a run: fault
    injection and observability scrape ticks.
``other``
    Anything inference cannot place.
    The observatory reports coverage = 1 - other/total; the acceptance
    bar is >= 95 %.

A timer firing (``Timer._fire``: one function, many timers) is classed
by its timer's name through :data:`TIMER_CLASSES`, the one place a
timer's class is decided; unknown names are periodic ticks.  Every
other callback is placed by **callsite inference**: :func:`infer`
pattern-matches the callback's module/qualname; it places every
engine-adjacent callback of the NIC, link, router, host, process and
harness layers, and third-party or future callbacks degrade to a
sensible class instead of ``other``.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.timer import Timer

__all__ = ["EVENT_CLASSES", "classify", "infer", "timer_class",
           "TIMER_CLASSES"]

#: the frozen vocabulary of the tax table (order = report order)
EVENT_CLASSES = (
    "jiffy-timer", "nak-repair-timer", "nic-tx", "nic-rx", "link",
    "process-wake", "app", "fleet-harness", "other",
)

#: timer name -> event class
TIMER_CLASSES = {
    "transmit": "jiffy-timer",
    "update": "jiffy-timer",
    "keepalive": "jiffy-timer",
    "liveness": "jiffy-timer",
    "poll": "jiffy-timer",
    "linger": "jiffy-timer",
    "leave-timeout": "jiffy-timer",
    "nak": "nak-repair-timer",
    "retrans": "nak-repair-timer",
    "join-retry": "nak-repair-timer",
    "rto": "nak-repair-timer",
}

def timer_class(name: str) -> str:
    """Event class of a :class:`~repro.sim.timer.Timer` by its name."""
    return TIMER_CLASSES.get(name, "jiffy-timer")


#: (module prefix, qualname substring or "", class) -- first match wins
_INFER_RULES = (
    ("repro.net.nic", "_tx", "nic-tx"),
    ("repro.net.nic", "medium_deliver", "link"),
    ("repro.net.nic", "", "nic-rx"),
    ("repro.net.link", "", "link"),
    ("repro.net.router", "", "link"),
    ("repro.kernel.host", "_xmit", "nic-tx"),
    ("repro.kernel.host", "", "nic-rx"),
    ("repro.sim.process", "Process.", "app"),
    ("repro.sim.process", "", "process-wake"),
    ("repro.apps", "", "app"),
    ("repro.core.receiver", "_emit_repairs", "nak-repair-timer"),
    ("repro.obs", "", "fleet-harness"),
    ("repro.faults", "", "fleet-harness"),
    ("repro.harness", "", "fleet-harness"),
    ("repro.fleet", "", "fleet-harness"),
)


def infer(module: str, qualname: str) -> str:
    """Place a callback by its defining module and qualified name.
    Returns ``"other"`` when nothing matches."""
    for prefix, fragment, event_class in _INFER_RULES:
        if module == prefix or module.startswith(prefix + "."):
            if not fragment or fragment in qualname:
                return event_class
    return "other"


def classify(callback: Callable) -> str:
    """Classify one engine callback (the profiler folds its table with
    this when a class view is read).

    A timer firing is classed by its timer's name, anything else by
    module/qualname inference."""
    fn = getattr(callback, "__func__", callback)
    owner = getattr(callback, "__self__", None)
    if owner is not None and fn is Timer._fire:
        return timer_class(owner.name)
    return infer(getattr(fn, "__module__", "") or "",
                 getattr(fn, "__qualname__", "") or "")
