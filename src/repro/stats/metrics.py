"""Per-endpoint protocol counters and the release-information tracker.

The release tracker implements the paper's Figure 3 metric: the
percentage of buffer-release events at which the sender already holds
complete information (every member's next-expected sequence number at
or past the release boundary) without having to probe and wait.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["Counters", "ReleaseTracker"]


@dataclass
class Counters:
    """Protocol event counters; sender and receiver each own one."""

    # data path
    data_pkts_sent: int = 0
    data_bytes_sent: int = 0
    retrans_pkts: int = 0
    retrans_bytes: int = 0
    data_pkts_rcvd: int = 0
    data_bytes_rcvd: int = 0
    dup_pkts_rcvd: int = 0
    out_of_order_pkts: int = 0
    out_of_window_drops: int = 0
    # feedback
    naks_sent: int = 0
    naks_rcvd: int = 0
    nak_errs_sent: int = 0
    nak_errs_rcvd: int = 0
    rate_requests_sent: int = 0
    rate_requests_rcvd: int = 0
    urgent_requests_sent: int = 0
    urgent_requests_rcvd: int = 0
    updates_sent: int = 0
    updates_rcvd: int = 0
    probes_sent: int = 0
    probes_rcvd: int = 0
    keepalives_sent: int = 0
    keepalives_rcvd: int = 0
    # membership
    joins_sent: int = 0
    joins_rcvd: int = 0
    leaves_sent: int = 0
    leaves_rcvd: int = 0
    # errors / local events
    reliability_violations: int = 0   # RMC released data later NAKed
    member_timeouts: int = 0          # unresponsive members evicted
    fec_pkts_sent: int = 0
    fec_repairs: int = 0
    local_repairs_sent: int = 0
    local_repairs_used: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def add(self, other: "Counters") -> "Counters":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    @property
    def feedback_total(self) -> int:
        """Total reverse traffic generated (per paper Figure 11/13)."""
        return (self.naks_sent + self.rate_requests_sent +
                self.updates_sent + self.joins_sent + self.leaves_sent)


@dataclass
class ReleaseTracker:
    """Figure-3 metric: completeness of receiver info at release time."""

    checks: int = 0
    complete: int = 0

    def record(self, complete: bool) -> None:
        self.checks += 1
        if complete:
            self.complete += 1

    @property
    def percent_complete(self) -> float:
        if self.checks == 0:
            return 100.0
        return 100.0 * self.complete / self.checks
