"""Best-effort network substrate.

Models the pieces beneath the transport protocol: an IP-multicast-capable
best-effort datagram network built from shared-medium Ethernet links
(the experimental testbed), point-to-point pipes and routers with an
assigned network speed, queue size and loss rate (the CSIM simulation
topology of the paper), and network interfaces with a finite receive
ring drained at host-CPU speed (the mechanism behind the paper's
Figure 13 NAK observations).

A component that drops a frame keeps no count of its own: it makes one
call, ``Simulator.drop(reason, where, pkt)``, which adds the frame to
the run's drop ledger (``Simulator.drops``) and reports it at the
packet seam.  :meth:`Network.drop_summary` reads the ledger.
"""

from repro.net.addr import is_multicast, mcast_addr, host_addr
from repro.net.packet import NetPacket, IP_OVERHEAD, LINK_OVERHEAD
from repro.net.link import SharedLink
from repro.net.nic import NetworkInterface
from repro.net.router import Pipe, Router
from repro.net.topology import Network, EthernetLanTopology, WanTreeTopology

__all__ = [
    "is_multicast",
    "mcast_addr",
    "host_addr",
    "NetPacket",
    "IP_OVERHEAD",
    "LINK_OVERHEAD",
    "SharedLink",
    "NetworkInterface",
    "Pipe",
    "Router",
    "Network",
    "EthernetLanTopology",
    "WanTreeTopology",
]
