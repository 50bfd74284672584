"""The simlint rule-set version.

Kept in a leaf module with no imports so that anything may depend on it
without dragging in the analyzer (notably
:mod:`repro.fleet.fingerprint`, which mixes this constant into the
protocol-code fingerprint: a rule-set bump invalidates every cached
fleet result, because results that an older analyzer blessed may now be
produced by code the newer analyzer rejects).

Bump the version whenever a rule's observable behaviour changes -- a
new rule, a deleted one, a scope change, a fixed false negative.  Pure
refactors of the analyzer do *not* require a bump (the ``analysis``
package is excluded from the fingerprint's file walk for exactly this
reason).
"""

from __future__ import annotations

__all__ = ["RULESET_VERSION"]

#: bump on any observable rule-behaviour change (see module docstring)
#: simlint-2: R1 also flags tracemalloc/gc measurement calls, and the
#: wall-clock allowlist gained the profiler's boundary
#: simlint-3: R8 (writes to ``now`` outside repro.sim.engine)
#: simlint-4: R1-R7 deleted (tier-1 catches their hazards); R8 remains
RULESET_VERSION = "simlint-4"
