"""IP-level packet envelope.

A :class:`NetPacket` wraps one transport segment with network addressing
and accounts for wire overheads.  Routers duplicate multicast packets by
creating copies that *share* the segment object (segments are treated as
immutable once sent), mirroring how the paper's simulator duplicates
packets within a router.
"""

from __future__ import annotations

from typing import Any

__all__ = ["NetPacket", "IP_OVERHEAD", "LINK_OVERHEAD"]

IP_OVERHEAD = 20  # IPv4 header, as in the paper's partial IP header
LINK_OVERHEAD = 18  # Ethernet MAC header + FCS


class NetPacket:
    """One best-effort datagram in flight.

    ``segment`` is the transport-layer object (an H-RMC segment, an ACK
    segment for a baseline protocol, ...).  ``seg_bytes`` is the size of
    the transport header plus payload; the wire size adds IP and link
    overheads.
    """

    __slots__ = ("src", "dst", "segment", "seg_bytes", "wire_bytes", "id",
                 "hops", "born_us", "corrupted", "cause", "blame")

    def __init__(self, src: str, dst: str, segment: Any, seg_bytes: int,
                 born_us: int = 0, pid: int = 0):
        # ids are allocated per-Simulator (sim.new_packet_id()), never
        # from process-global state: two runs in one worker process must
        # produce identical packet streams
        self.src = src
        self.dst = dst
        self.segment = segment
        self.seg_bytes = int(seg_bytes)
        self.wire_bytes = self.seg_bytes + IP_OVERHEAD + LINK_OVERHEAD
        self.id = pid
        self.hops = 0
        self.born_us = born_us
        self.corrupted = False   # bit errors in flight; checksum catches
        self.cause = 0           # causal node id of the tx (obs.causal)
        self.blame = 0           # causal node id of the fault that hit us

    @property
    def wire_bits(self) -> int:
        return self.wire_bytes * 8

    def fork(self, pid: int = 0) -> "NetPacket":
        """Duplicate for multicast fan-out (shares the segment)."""
        dup = NetPacket(self.src, self.dst, self.segment, self.seg_bytes,
                        self.born_us, pid)
        dup.hops = self.hops
        dup.corrupted = self.corrupted
        dup.cause = self.cause
        dup.blame = self.blame
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"NetPacket(#{self.id} {self.src}->{self.dst} "
                f"{self.seg_bytes}B {self.segment!r})")
