"""Which rules apply where.

The scoping decisions live here, in one place, so the rule modules stay
pure detectors and a reviewer can audit the whole policy at a glance.

The mental model: *everything under* ``repro`` *is simulation path
unless it is explicitly carved out below*.  The carve-outs are the
boundary layers that legitimately talk to the host machine -- the CLI
harness (progress timing), the wall-clock side of the profiler, the
performance observatory and the fleet executor (worker wall-clock
timeouts).  New carve-outs belong in this file, in a PR, with a reason
-- not scattered through the tree as suppressions.
"""

from __future__ import annotations

from repro.analysis.context import ModuleContext

__all__ = [
    "WALLCLOCK_ALLOWED", "RNG_ALLOWED", "GLOBAL_STATE_PACKAGES",
    "FORK_ALLOWED", "SIGNAL_HANDLER_ALLOWED", "ORDERING_PACKAGES",
    "CLOCK_WRITE_ALLOWED",
    "wallclock_allowed", "rng_allowed", "global_state_scoped",
    "fork_allowed", "signal_handler_allowed", "ordering_scoped",
    "clock_write_allowed",
]

#: modules that may read the host clock: harness progress output, the
#: wall half of the profiler, the performance observatory (wall
#: attribution, stack sampling, tracemalloc/gc accounting) and executor
#: job timeouts
WALLCLOCK_ALLOWED = (
    "repro.harness",
    "repro.obs.profiler",
    "repro.obs.perf",
    "repro.fleet.executor",
)

#: the one module allowed to touch the stdlib ``random`` module: it is
#: where the seeded per-component substreams are minted
RNG_ALLOWED = ("repro.sim.rng",)

#: packages where module-global mutable state is banned outright (the
#: PR 4 packet-id-counter bug class: cross-run contamination inside one
#: worker process)
GLOBAL_STATE_PACKAGES = (
    "repro.sim", "repro.net", "repro.kernel", "repro.core",
)

#: packages where unordered-iteration hazards are checked (scheduling,
#: serialization and hashing paths)
ORDERING_PACKAGES = (
    "repro.sim", "repro.net", "repro.kernel", "repro.core",
    "repro.faults", "repro.trace", "repro.obs", "repro.stats",
    "repro.fleet", "repro.workloads", "repro.baselines", "repro.apps",
    "repro.analysis",
)

#: the only package that may reach fork/subprocess machinery at all
FORK_ALLOWED = ("repro.fleet",)

#: the only module that may install signal handlers / arm timers
#: (per-job SIGALRM wall-clock timeouts around worker runs)
SIGNAL_HANDLER_ALLOWED = ("repro.fleet.worker",)

#: the one module that assigns ``now``: the engine's run loop
CLOCK_WRITE_ALLOWED = ("repro.sim.engine",)


def wallclock_allowed(ctx: ModuleContext) -> bool:
    return ctx.in_package(*WALLCLOCK_ALLOWED)


def rng_allowed(ctx: ModuleContext) -> bool:
    return ctx.in_package(*RNG_ALLOWED)


def global_state_scoped(ctx: ModuleContext) -> bool:
    return ctx.in_package(*GLOBAL_STATE_PACKAGES)


def ordering_scoped(ctx: ModuleContext) -> bool:
    # the ordering rule also applies to code outside repro (fixtures,
    # scripts): nothing about it is repo-specific
    return ordering_default(ctx) or ctx.in_package(*ORDERING_PACKAGES)


def ordering_default(ctx: ModuleContext) -> bool:
    return not ctx.module.startswith("repro.")


def fork_allowed(ctx: ModuleContext) -> bool:
    return ctx.in_package(*FORK_ALLOWED)


def signal_handler_allowed(ctx: ModuleContext) -> bool:
    return ctx.in_package(*SIGNAL_HANDLER_ALLOWED)


def clock_write_allowed(ctx: ModuleContext) -> bool:
    return ctx.in_package(*CLOCK_WRITE_ALLOWED)
