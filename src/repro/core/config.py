"""Protocol configuration.

The paper's fixed protocol constants (DESIGN.md section 4) are module
constants here.  :class:`HRMCConfig` holds only what an experiment, the
harness or a test sets: defaults that follow the paper, and the feature
switches that select between H-RMC (everything on), the original RMC
(updates, probes and reliable release off), and the future-work
extensions the paper lists in its conclusions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["HRMCConfig"]

# buffering rules (paper section 2)
WARNBUF_RTTS = 4                  # WARNBUF: warning-region rule horizon

# RTT estimation and rate control
INITIAL_RTT_US = 50_000
MIN_RTT_US = 1_000                # floor for timer arithmetic
URGENT_STOP_RTTS = 2              # an urgent request halts sending 2 RTTs
RATE_CAP_FACTOR = 16.0            # rate ceiling / link speed (with_rate_cap)

# keepalives: exponential backoff up to 2 s (paper section 2)
KEEPALIVE_INITIAL_US = 100_000
KEEPALIVE_MAX_US = 2_000_000

# receiver updates (paper sections 3/4.3): initial period 50 jiffies,
# +/- 1 jiffy per period based on probe observations
UPDATE_INITIAL_JIFFIES = 50
UPDATE_MIN_JIFFIES = 2
UPDATE_MAX_JIFFIES = 200
UPDATE_STEP_JIFFIES = 1

# NAKs and probes
NAK_MAX_RANGE = 0xFFFF            # max bytes requested by one NAK
PROBE_BACKOFF = 1.5               # re-probe interval growth per try

# membership handshake
JOIN_RETRY_US = 200_000
JOIN_MAX_TRIES = 10
LEAVE_MAX_TRIES = 8               # LEAVE retransmissions at close

# future-work extensions (paper conclusions)
EARLY_PROBE_FRACTION = 0.5        # (1) probe when a packet is this far
#                                   through its MINBUF hold time
LOCAL_RECOVERY_TRIES = 2          # (3) multicast NAKs before falling
#                                   back to unicasting the sender


@dataclass(frozen=True)
class HRMCConfig:
    # segmentation / sequence space
    mss: int = 1460                  # payload bytes per DATA packet
    iss: int = 1                     # initial sequence number

    # buffering rules (paper section 2; WARNBUF_RTTS above)
    minbuf_rtts: int = 10            # MINBUF: hold each packet >= 10 RTTs

    # receive-window regions (fractions of the window that begin the
    # warning and critical regions of paper Figure 2)
    warn_fill: float = 0.50
    crit_fill: float = 0.90

    # rate-based flow control
    min_rate_bps: int = 1_168_000        # 100 mss packets/s
    max_rate_bps: int = 1_000_000_000    # scenario caps this near link speed

    # NAK handling
    nak_suppress_rtts: float = 1.5   # local suppression interval

    # probe policy (PROBE_BACKOFF above): a member that answers none of
    # this many probes over at least this long is declared dead and
    # evicted, so one crashed receiver cannot block the group's buffer
    # release forever
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
    mcast_probe_threshold: Optional[int] = None   # (2) multicast the probe
    #                                     when this many receivers lack state
    local_recovery: bool = False        # (3) receivers retransmit locally
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

    def with_rate_cap(self, link_bps: float) -> "HRMCConfig":
        """Set the rate-growth ceiling (the ``max_snd_rate_wnd`` of the
        paper's Figure 7) relative to a scenario's link speed.  The
        default is deliberately far above the link: in the paper's
        memory tests "the rate window grows exponentially with time
        causing a large increase in the sending rate", which is what
        produces window-sized single-jiffy bursts with large buffers."""
        return replace(self, max_rate_bps=int(link_bps * RATE_CAP_FACTOR))

    def __post_init__(self):
        if self.mss <= 0:
            raise ValueError("mss must be positive")
        if not (0.0 < self.warn_fill < self.crit_fill <= 1.0):
            raise ValueError("need 0 < warn_fill < crit_fill <= 1")
        if self.min_rate_bps <= 0 or self.max_rate_bps < self.min_rate_bps:
            raise ValueError("bad rate bounds")
