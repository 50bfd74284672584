"""Shared-medium Ethernet link.

Models the testbed's single Ethernet segment: every attached interface
hears every frame; transmission is serialized on the medium (an
idealised CSMA -- no collisions, first-come first-served arbitration),
and the sender does not receive its own frame.

The link is a pure medium: queueing happens in the NIC transmit rings,
which ask the link for the next free slot via :meth:`reserve`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.engine import Simulator, US_PER_SEC
from repro.sim.rng import substream

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.nic import NetworkInterface
    from repro.net.packet import NetPacket

__all__ = ["SharedLink"]


class SharedLink:
    """A broadcast Ethernet segment with finite bandwidth.

    Parameters
    ----------
    bandwidth_bps:
        Raw medium speed (10e6 or 100e6 in the paper's testbed).
    prop_delay_us:
        One-way propagation delay across the segment.
    """

    def __init__(self, sim: Simulator, bandwidth_bps: float,
                 prop_delay_us: int = 5, name: str = "eth0",
                 seed: int = 0):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth_bps = float(bandwidth_bps)
        self.prop_delay_us = int(prop_delay_us)
        self.name = name
        self._nics: list["NetworkInterface"] = []
        self._busy_until: int = 0
        # -- fault-injection hooks (repro.faults) ------------------------
        # Structural loss draws come from the NICs; faults use their own
        # substream so enabling a fault never perturbs the structural RNG
        # sequences of an otherwise identical run.
        self.up = True                 # link flap: down drops every frame
        self.fault_loss_rate = 0.0     # link degrade: extra random loss
        self._fault_rng = substream(seed, f"fault:link:{name}")

    def attach(self, nic: "NetworkInterface") -> None:
        self._nics.append(nic)

    def tx_time_us(self, pkt: "NetPacket") -> int:
        us = round(pkt.wire_bytes * 8 * US_PER_SEC / self.bandwidth_bps)
        return us if us > 1 else 1

    def reserve(self, pkt: "NetPacket") -> tuple[int, int]:
        """Claim the medium for ``pkt``.

        Returns ``(start_us, end_us)`` of the transmission slot.  The
        caller (a NIC ring) must not submit its next frame before
        ``end_us``.
        """
        start = self._busy_until
        if start < self.sim.now:
            start = self.sim.now
        end = start + self.tx_time_us(pkt)
        self._busy_until = end
        return start, end

    def broadcast(self, pkt: "NetPacket", sender: "NetworkInterface",
                  end_us: int) -> None:
        """Deliver ``pkt`` to every other interface after propagation."""
        if not self.up:
            self.sim.drop("link_down", self.name, pkt)
            return
        if self.fault_loss_rate > 0.0 and \
                self._fault_rng.random() < self.fault_loss_rate:
            self.sim.drop("link_fault_loss", self.name, pkt)
            return
        # one engine event for the whole fan-out: per-NIC entries would
        # share this timestamp and hold consecutive order numbers, so
        # nothing could fire between them and walking the NICs inside
        # one event is the same firing order
        self.sim.call_at(end_us + self.prop_delay_us, self._deliver_all, pkt,
                         sender)

    def _deliver_all(self, pkt: "NetPacket",
                     sender: "NetworkInterface") -> None:
        # every interface hears the same frame; a NIC that corrupts its
        # copy forks it first
        for nic in self._nics:
            if nic is not sender:
                nic.medium_deliver(pkt)
