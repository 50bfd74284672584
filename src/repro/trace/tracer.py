"""The packet seam and the capture that owns it.

Every site that sends, receives or drops a segment reports it at one
per-run seam, ``Simulator.tap`` (``None`` on a bare run), as
``tap(fact, where, pkt)``: ``fact`` is ``"tx"``, ``"rx"`` or the drop
reason (``rx_loss``, ``router_loss``, ``checksum``, ...), ``where`` the
host address or component name.  A drop site calls
``Simulator.drop``, which counts the frame in the run's drop ledger
(``Simulator.drops``) and then reports it here.  :class:`PacketTracer`
owns the seam: it records a :class:`TraceEvent` per segment sent or
received at the hosts it was attached to and hands every fact to its
subscribers (the invariant checker).  Segments are never copied.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, NamedTuple, Optional

from repro.core.types import PacketType
from repro.kernel.host import Host
from repro.net.packet import NetPacket

__all__ = ["TraceEvent", "PacketTracer"]


class TraceEvent(NamedTuple):
    """One captured segment (built positionally at the seam, in field
    order)."""

    t_us: int
    host: str
    direction: str       # "tx" | "rx"
    peer: str            # destination (tx) or source (rx) address
    ptype: int
    seq: int
    length: int
    rate_adv: int
    tries: int
    flags: int

    @property
    def type_name(self) -> str:
        """The packet type's name, as the invariant checker's violation
        tail prints it."""
        try:
            return PacketType(self.ptype).name
        except ValueError:
            return f"type{self.ptype}"


class PacketTracer:
    """Own a run's packet seam and capture traffic at one or more hosts.

    >>> tracer = PacketTracer()
    >>> tracer.attach(scenario.sender, *scenario.receivers)
    >>> ... run the simulation ...
    >>> events = tracer.events
    >>> tracer.save("run.trace.jsonl")

    The capture is unbounded, or with ``ring=N`` keeps only the most
    recent ``N`` records (a flight recorder for long chaos runs);
    ``dropped`` counts the records the ring evicted.  ``subscribers``
    see every fact, independent of the ring: tx and rx at the attached
    hosts and every drop in the run.  A :class:`TraceEvent` is built
    per tx or rx at an attached host, never per drop.
    """

    def __init__(self, *, ring: Optional[int] = None):
        self.events: "list[TraceEvent] | deque[TraceEvent]" = \
            [] if ring is None else deque(maxlen=ring)
        self.ring = ring
        self.dropped = 0
        self.subscribers: list[
            Callable[[int, str, str, NetPacket], None]] = []
        self._addrs: set[str] = set()
        self._sim = None
        self._seam = None

    def attach(self, *hosts: Host) -> "PacketTracer":
        """Install this tracer as the run's seam (once; a second tracer
        on the same run raises) and capture at ``hosts``."""
        for host in hosts:
            sim = host.sim
            if self._seam is None and sim.tap is None:
                self._sim = sim
                self._seam = sim.tap = self._make_seam(sim)
            elif sim.tap is not self._seam or host.addr in self._addrs:
                raise RuntimeError(f"{host.name} already has a tap")
            self._addrs.add(host.addr)
        return self

    def detach(self) -> None:
        if self._sim is not None and self._sim.tap is self._seam:
            self._sim.tap = None
        self._sim = self._seam = None
        self._addrs.clear()

    def _make_seam(self, sim):
        addrs = self._addrs
        events = self.events
        ring = self.ring
        subscribers = self.subscribers

        def seam(fact: str, where: str, pkt: NetPacket) -> None:
            traffic = fact == "tx" or fact == "rx"
            if traffic and where not in addrs:
                return
            now = sim.now
            for subscriber in subscribers:
                subscriber(now, fact, where, pkt)
            if not traffic:
                return
            if ring is not None and len(events) == ring:
                self.dropped += 1       # the full ring evicts its oldest
            skb = pkt.segment
            events.append(TraceEvent(
                now, where, fact, pkt.dst if fact == "tx" else pkt.src,
                int(skb.ptype), skb.seq, skb.length, skb.rate_adv,
                skb.tries, skb.flags))

        return seam

    def subscribe(self,
                  fn: Callable[[int, str, str, NetPacket], None]) -> None:
        """Call ``fn(now_us, fact, where, pkt)`` for every fact the seam
        reports, before the capture stores its record.  The packet and
        its segment are live: a subscriber reads them and writes
        nothing."""
        self.subscribers.append(fn)

    def recent(self, n: int = 20) -> list[TraceEvent]:
        """The last ``n`` captured events (most recent last)."""
        if n <= 0:
            return []
        return list(self.events)[-n:]

    # -- persistence ------------------------------------------------------

    def save(self, path: str) -> int:
        """Write the capture as JSON lines; returns the event count.

        Events are emitted in time order (a ring capture whose contents
        were assembled across evictions is re-sorted, stably, to be
        safe), and a ring that evicted records leads with a ``_meta``
        line recording how many, so a reader knows the head of the run
        is missing.
        """
        events = sorted(self.events, key=lambda e: e.t_us)
        with open(path, "w") as fh:
            if self.dropped:
                meta = {"_meta": {"truncated": True, "ring": True,
                                  "dropped": self.dropped}}
                fh.write(json.dumps(meta, separators=(",", ":")))
                fh.write("\n")
            for ev in events:
                fh.write(json.dumps(ev._asdict(), separators=(",", ":")))
                fh.write("\n")
        return len(events)
