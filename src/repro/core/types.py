"""Packet types and header flags (paper Table 1 and Figure 1)."""

from __future__ import annotations

import enum

__all__ = ["PacketType", "URG", "FIN", "PACKET_TYPE_USE"]


class PacketType(enum.IntEnum):
    """The eleven H-RMC packet types.  The first nine come from RMC;
    UPDATE and PROBE are the H-RMC additions."""

    DATA = 1
    NAK = 2
    NAK_ERR = 3
    JOIN = 4
    JOIN_RESPONSE = 5
    LEAVE = 6
    LEAVE_RESPONSE = 7
    CONTROL = 8
    KEEPALIVE = 9
    UPDATE = 10   # H-RMC only
    PROBE = 11    # H-RMC only


# Header flag bits
URG = 0x0001
FIN = 0x0002

# Human-readable inventory, mirroring Table 1 (used by the table1
# experiment and by diagnostics).
# simlint: ok[R3] read-only documentation table mirroring Table 1; never mutated
PACKET_TYPE_USE: dict[PacketType, str] = {
    PacketType.DATA: "Used by sender for data transmissions and retransmissions.",
    PacketType.NAK: "Used by receiver to request data retransmissions.",
    PacketType.NAK_ERR: "Used by sender to inform a receiver it cannot satisfy "
                        "retransmission request.",
    PacketType.JOIN: "Used by a receiver to request to join the multicast group.",
    PacketType.JOIN_RESPONSE: "Used by sender to confirm that a join request "
                              "has been accepted.",
    PacketType.LEAVE: "Used by a receiver to inform the sender that it is "
                      "leaving the multicast group.",
    PacketType.LEAVE_RESPONSE: "Used by sender to confirm that a leave request "
                               "has been received.",
    PacketType.CONTROL: "Used by a receiver to request a reduced transmission rate.",
    PacketType.KEEPALIVE: "Used by sender to keep the connection active during "
                          "idle time.",
    PacketType.UPDATE: "Used by the receiver to send state information to the "
                       "sender. (H-RMC only)",
    PacketType.PROBE: "Used by the sender to obtain state information from "
                      "receivers. (H-RMC only)",
}

# H-RMC additions over the base RMC protocol
HRMC_ONLY_TYPES = frozenset({PacketType.UPDATE, PacketType.PROBE})
