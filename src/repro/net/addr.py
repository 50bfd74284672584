"""IPv4-style addressing helpers.

Addresses are dotted-quad strings.  Class-D addresses (224.0.0.0 --
239.255.255.255) are multicast, exactly as in IP.
"""

from __future__ import annotations

__all__ = ["is_multicast", "mcast_addr", "host_addr"]


def _first_octet(addr: str) -> int:
    dot = addr.find(".")
    if dot <= 0:
        raise ValueError(f"malformed address {addr!r}")
    return int(addr[:dot])


def is_multicast(addr: str) -> bool:
    """True for class-D (224/4) addresses."""
    return 224 <= _first_octet(addr) <= 239


def mcast_addr(group: int) -> str:
    """A multicast group address; ``group`` selects distinct groups."""
    if not 0 <= group <= 0xFFFF:
        raise ValueError(f"group id {group} out of range")
    return f"224.1.{group >> 8}.{group & 0xFF}"


def host_addr(site: int, host: int) -> str:
    """A unicast host address within a numbered site."""
    if not (0 <= site <= 255 and 1 <= host <= 0xFFFF):
        raise ValueError(f"bad site/host ({site}, {host})")
    return f"10.{site}.{host >> 8}.{host & 0xFF}"

