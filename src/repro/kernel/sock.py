"""The INET ``sock`` structure (paper Figure 6).

Holds endpoint addressing, buffer-size limits and allocation counters,
the packet queues shared by all transports, the wake-up events that the
blocking socket calls sleep on, and the socket lock.  The
protocol-specific block (``hrmc_opt`` in the paper's Figure 7) is not a
field here: each transport keeps its own role object (the H-RMC
transport's ``sender`` or ``receiver``).
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.skbuff import SkbQueue
from repro.sim.engine import Simulator
from repro.sim.process import SimEvent

__all__ = ["Sock", "DEFAULT_BUF"]

DEFAULT_BUF = 64 * 1024


class Sock:
    """Network state common to transports (cf. ``struct sock``)."""

    def __init__(self, sim: Simulator, *, sndbuf: int = DEFAULT_BUF,
                 rcvbuf: int = DEFAULT_BUF, name: str = "sk"):
        self.sim = sim
        self.name = name
        # addressing
        self.daddr: Optional[str] = None      # foreign (multicast) address
        self.dport: int = 0                   # destination port
        self.num: int = 0                     # local port
        # memory limits / usage
        self.sndbuf = int(sndbuf)
        self.rcvbuf = int(rcvbuf)
        # queues (cf. write_queue / receive_queue; the transport keeps
        # its own backlog)
        self.write_queue = SkbQueue("write")
        self.receive_queue = SkbQueue("receive")
        # wake-ups
        self.data_ready = SimEvent(sim, name=f"{name}.data_ready")
        self.write_space = SimEvent(sim, name=f"{name}.write_space")
        self.state_change = SimEvent(sim, name=f"{name}.state_change")
        # the socket lock: packets arriving while an application call
        # holds the socket go to the transport's backlog
        self.locked = False

    # -- memory accounting -------------------------------------------

    def wmem_free(self) -> int:
        """Free send-buffer space in bytes."""
        return self.sndbuf - self.write_queue.bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Sock({self.name}, port={self.num}, "
                f"wq={self.write_queue.bytes}/{self.sndbuf}, "
                f"rq={self.receive_queue.bytes}/{self.rcvbuf})")
