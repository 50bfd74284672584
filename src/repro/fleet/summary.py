"""Per-run result summaries: what crosses the worker boundary.

A :class:`RunSummary` is the JSON-safe projection of a
:class:`~repro.harness.runner.TransferResult` -- every scalar and
counter the experiment suites consume, none of the live objects
(sockets, observability instances, scenario graphs).  Workers return
summaries as plain dicts; the fleet rebuilds :class:`RunSummary`
objects from them, and the cache stores exactly the same dicts, so the
in-process, multiprocess and warm-cache paths all flow through one
representation and byte-identical aggregates fall out for free.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Optional

from repro.stats.metrics import Counters

__all__ = ["RunSummary", "summarize_result"]


@dataclass
class RunSummary:
    """Everything the figure suites read off a finished run."""

    protocol: str
    nbytes: int
    n_receivers: int
    ok: bool
    duration_us: int
    throughput_bps: float
    sender_stats: Counters
    receiver_stats: Counters
    release_checks: int = 0
    release_complete_pct: float = 100.0
    probes_triggered: int = 0
    lost_bytes: int = 0
    reliability_violations: int = 0
    member_timeouts: int = 0
    sim_events: int = 0
    # chaos bookkeeping
    fault_events: int = 0
    plan_actions: int = 0
    crashed_receivers: list = field(default_factory=list)
    restarted_receivers: list = field(default_factory=list)
    invariant_checks: int = 0
    surviving_ok: bool = True
    # observability sample (list of (title, headers, rows) tables)
    obs_tables: list = field(default_factory=list)
    # compact protocol-health payload (repro.obs.health payload();
    # only when the spec asked for it)
    health: dict = field(default_factory=dict)

    @property
    def throughput_mbps(self) -> float:
        return self.throughput_bps / 1e6

    @property
    def feedback_total(self) -> int:
        return self.receiver_stats.feedback_total

    def to_dict(self) -> dict:
        d = asdict(self)
        d["sender_stats"] = self.sender_stats.as_dict()
        d["receiver_stats"] = self.receiver_stats.as_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunSummary":
        d = dict(d)
        try:
            d["sender_stats"] = Counters(**d["sender_stats"])
            d["receiver_stats"] = Counters(**d["receiver_stats"])
            return cls(**d)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed run summary: {exc}") from None


def summarize_result(result: Any, *, plan_actions: int = 0,
                     obs_tables: Optional[list] = None,
                     health: Optional[dict] = None) -> RunSummary:
    """Project a :class:`TransferResult` onto the wire format."""
    return RunSummary(
        protocol=result.protocol, nbytes=result.nbytes,
        n_receivers=result.n_receivers, ok=result.ok,
        duration_us=result.duration_us,
        throughput_bps=result.throughput_bps,
        sender_stats=result.sender_stats,
        receiver_stats=result.receiver_stats,
        release_checks=result.release_checks,
        release_complete_pct=result.release_complete_pct,
        probes_triggered=result.probes_triggered,
        lost_bytes=result.lost_bytes,
        reliability_violations=result.reliability_violations,
        member_timeouts=result.member_timeouts,
        sim_events=result.sim_events,
        fault_events=result.fault_events,
        plan_actions=plan_actions,
        crashed_receivers=list(result.crashed_receivers),
        restarted_receivers=list(result.restarted_receivers),
        invariant_checks=result.invariant_checks,
        surviving_ok=result.surviving_ok,
        obs_tables=list(obs_tables) if obs_tables else [],
        health=dict(health) if health else {},
    )
