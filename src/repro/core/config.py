"""Protocol configuration.

Defaults follow the constants stated in the paper; the feature switches
select between H-RMC (everything on), the original RMC (updates,
probes and reliable release off), and the future-work extensions the
paper lists in its conclusions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["HRMCConfig"]


@dataclass(frozen=True)
class HRMCConfig:
    # segmentation / sequence space
    mss: int = 1460                  # payload bytes per DATA packet
    iss: int = 1                     # initial sequence number

    # buffering rules (paper section 2)
    minbuf_rtts: int = 10            # MINBUF: hold each packet >= 10 RTTs
    warnbuf_rtts: int = 4            # WARNBUF: warning-region rule horizon

    # receive-window regions (fractions of the window that begin the
    # warning and critical regions of paper Figure 2)
    warn_fill: float = 0.50
    crit_fill: float = 0.90

    # rate-based flow control
    min_rate_bps: int = 1_168_000        # 100 mss packets/s
    max_rate_bps: int = 1_000_000_000    # scenario caps this near link speed
    initial_rtt_us: int = 50_000
    min_rtt_us: int = 1_000              # floor for timer arithmetic
    urgent_stop_rtts: int = 2            # urgent request halts sending 2 RTTs

    # keepalives: exponential backoff up to 2 s (paper section 2)
    keepalive_initial_us: int = 100_000
    keepalive_max_us: int = 2_000_000

    # receiver updates (paper sections 3/4.3): initial period 50 jiffies,
    # +/- 1 jiffy per period based on probe observations
    update_initial_jiffies: int = 50
    update_min_jiffies: int = 2
    update_max_jiffies: int = 200
    update_step_jiffies: int = 1

    # NAK handling
    nak_suppress_rtts: float = 1.5   # local suppression interval
    nak_max_range: int = 0xFFFF      # max bytes requested by one NAK

    # probe policy
    probe_backoff: float = 1.5       # re-probe interval growth per try
    join_retry_us: int = 200_000
    join_max_tries: int = 10
    leave_max_tries: int = 8         # LEAVE retransmissions at close
    # a member that answers none of this many probes over at least this
    # long is declared dead and evicted, so one crashed receiver cannot
    # block the group's buffer release forever
    member_timeout_probes: int = 12
    member_timeout_us: int = 10_000_000
    # receiver-side liveness: with keepalives capped at 2 s, total sender
    # silence for this long means the sender is gone; the receiving
    # application is unblocked with an error instead of hanging
    session_timeout_us: int = 30_000_000

    # ---- feature switches ------------------------------------------------
    updates_enabled: bool = True        # H-RMC periodic updates
    probes_enabled: bool = True         # H-RMC probe-before-release
    reliable_release: bool = True       # hold window for complete info
    dynamic_update_timer: bool = True   # adapt the update period

    # scenario knowledge: with reliable_release the sender refuses to
    # release data until at least this many receivers have joined (the
    # harness sets it; None keeps the paper's anonymous-join semantics)
    expected_receivers: Optional[int] = None

    # ---- paper future-work extensions -----------------------------------
    early_probes: bool = False          # (1) probe before release is due
    early_probe_fraction: float = 0.5   # probe when a packet is this far
    #                                     through its MINBUF hold time
    mcast_probe_threshold: Optional[int] = None   # (2) multicast the probe
    #                                     when this many receivers lack state
    local_recovery: bool = False        # (3) receivers retransmit locally
    local_recovery_tries: int = 2       # multicast NAKs before falling
    #                                     back to unicasting the sender
    repair_cache_bytes: int = 512 * 1024  # per-receiver repair cache
    fec_enabled: bool = False           # (4) forward error correction
    fec_block: int = 16                 # data packets per parity packet

    # -- convenience constructors ------------------------------------------

    def as_rmc(self) -> "HRMCConfig":
        """The original, purely NAK-based RMC protocol.  RMC keeps the
        member table too, for the Fig. 3 metric, but does not gate
        release on it."""
        return replace(self, updates_enabled=False, probes_enabled=False,
                       reliable_release=False, dynamic_update_timer=False,
                       expected_receivers=None)

    def with_rate_cap(self, link_bps: float, factor: float = 16.0) -> "HRMCConfig":
        """Set the rate-growth ceiling (the ``max_snd_rate_wnd`` of the
        paper's Figure 7) relative to a scenario's link speed.  The
        default is deliberately far above the link: in the paper's
        memory tests "the rate window grows exponentially with time
        causing a large increase in the sending rate", which is what
        produces window-sized single-jiffy bursts with large buffers."""
        return replace(self, max_rate_bps=int(link_bps * factor))

    def __post_init__(self):
        if self.mss <= 0:
            raise ValueError("mss must be positive")
        if not (0.0 < self.warn_fill < self.crit_fill <= 1.0):
            raise ValueError("need 0 < warn_fill < crit_fill <= 1")
        if self.min_rate_bps <= 0 or self.max_rate_bps < self.min_rate_bps:
            raise ValueError("bad rate bounds")
        if self.update_min_jiffies < 1 or \
                self.update_max_jiffies < self.update_initial_jiffies or \
                self.update_initial_jiffies < self.update_min_jiffies:
            raise ValueError("bad update-period bounds")
