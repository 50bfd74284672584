"""IP-level packet envelope.

A :class:`NetPacket` wraps one transport segment with network addressing
and accounts for wire overheads.  One transmission is one frame object:
the shared link and the routers hand the same packet to every receiver
(the segment is immutable once sent), and only the site that damages
one receiver's copy -- fault corruption at a NIC -- takes a private
:meth:`~NetPacket.fork` first.
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

    __slots__ = ("src", "dst", "segment", "seg_bytes", "wire_bytes",
                 "corrupted")

    def __init__(self, src: str, dst: str, segment: Any, seg_bytes: int):
        self.src = src
        self.dst = dst
        self.segment = segment
        self.seg_bytes = int(seg_bytes)
        self.wire_bytes = self.seg_bytes + IP_OVERHEAD + LINK_OVERHEAD
        self.corrupted = False   # bit errors in flight; checksum catches

    @property
    def wire_bits(self) -> int:
        return self.wire_bytes * 8

    def fork(self) -> "NetPacket":
        """A private copy (sharing the segment) for a site about to
        write per-receiver state: every other holder keeps the frame
        as it was."""
        dup = NetPacket(self.src, self.dst, self.segment, self.seg_bytes)
        dup.corrupted = self.corrupted
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"NetPacket({self.src}->{self.dst} "
                f"{self.seg_bytes}B {self.segment!r})")
