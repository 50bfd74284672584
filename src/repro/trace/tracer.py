"""The packet seam and the capture that owns it.

Every site that sends, receives or drops a segment reports it at one
per-run seam, ``Simulator.tap`` (``None`` on a bare run), as
``tap(fact, where, pkt)``: ``fact`` is ``"tx"``, ``"rx"`` or the drop
reason (``rx_loss``, ``router_loss``, ``checksum``, ...), ``where`` the
host address or component name; a drop by a component a fault action
poisoned also passes its ``fault_cause`` as ``blame``.  The protocol
reports two facts of its own there, which carry no packet: ``gap``
(the receiver at ``where`` just claimed the NAK ranges passed as
``pkt``) and ``repair`` (the sender just queued the skb passed as
``pkt`` for retransmission).  :class:`PacketTracer` owns the seam: it records a :class:`TraceEvent`
per segment sent or received at the hosts it was attached to and hands
every fact to its subscribers -- the span collector, the causal
recorder and the invariant checker.  Segments are never copied.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, NamedTuple, Optional

from repro.core.types import PacketType
from repro.kernel.host import Host
from repro.net.packet import NetPacket

__all__ = ["TraceEvent", "PacketTracer", "load_trace", "trace_meta"]


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
        try:
            return PacketType(self.ptype).name
        except ValueError:
            return f"type{self.ptype}"

    @property
    def is_retransmission(self) -> bool:
        return self.ptype == PacketType.DATA and self.tries > 1


class PacketTracer:
    """Own a run's packet seam and capture traffic at one or more hosts.

    >>> tracer = PacketTracer()
    >>> tracer.attach(scenario.sender, *scenario.receivers)
    >>> ... run the simulation ...
    >>> events = tracer.events
    >>> tracer.save("run.trace.jsonl")

    With ``ring=True`` the capture keeps only the most recent
    ``max_events`` records (a flight recorder for long chaos runs)
    instead of truncating at the cap; ``dropped`` counts records lost
    off either end.  ``subscribers`` see every fact, independent of any
    cap: tx and rx at the attached hosts, every drop in the run and the
    protocol's gap and repair facts.  A
    :class:`TraceEvent` is built only when the capture keeps it
    (``max_events=0`` keeps nothing, so a subscriber-only tracer never
    builds a record).
    """

    def __init__(self, *, max_events: Optional[int] = None,
                 ring: bool = False):
        if ring and max_events is None:
            raise ValueError("ring=True requires max_events")
        self.events: "list[TraceEvent] | deque[TraceEvent]" = \
            deque(maxlen=max_events) if ring else []
        self.ring = ring
        self.max_events = max_events
        self.dropped = 0
        self.subscribers: list[
            Callable[[int, str, str, NetPacket, int], None]] = []
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
        max_events = self.max_events
        keeps = max_events != 0
        ring = self.ring
        subscribers = self.subscribers

        def seam(fact: str, where: str, pkt: NetPacket,
                 blame: int = 0) -> None:
            traffic = fact == "tx" or fact == "rx"
            if traffic and where not in addrs:
                return
            now = sim.now
            for subscriber in subscribers:
                subscriber(now, fact, where, pkt, blame)
            if not traffic:
                return
            if not keeps or (max_events is not None
                             and len(events) >= max_events):
                # full: a list drops the new record, a ring (deque with
                # maxlen) evicts its oldest -- a record is lost either way
                self.dropped += 1
                if not (keeps and ring):
                    return
            skb = pkt.segment
            events.append(TraceEvent(
                now, where, fact, pkt.dst if fact == "tx" else pkt.src,
                int(skb.ptype), skb.seq, skb.length, skb.rate_adv,
                skb.tries, skb.flags))

        return seam

    def subscribe(self,
                  fn: Callable[[int, str, str, NetPacket, int], None]
                  ) -> None:
        """Call ``fn(now_us, fact, where, pkt, blame)`` for every fact
        the seam reports, before the capture stores its record.  The
        packet and its segment are live: a subscriber reads them and
        writes nothing but the causal recorder's own ``cause`` slots."""
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
        safe), and a truncated capture leads with a ``_meta`` line
        recording how many records were lost, so replay tooling knows
        the head of the run is missing.
        """
        events = sorted(self.events, key=lambda e: e.t_us)
        with open(path, "w") as fh:
            if self.dropped:
                meta = {"_meta": {"truncated": True, "ring": self.ring,
                                  "dropped": self.dropped}}
                fh.write(json.dumps(meta, separators=(",", ":")))
                fh.write("\n")
            for ev in events:
                fh.write(json.dumps(ev._asdict(), separators=(",", ":")))
                fh.write("\n")
        return len(events)

    # -- convenience filters ------------------------------------------------

    def at_host(self, addr: str) -> list[TraceEvent]:
        return [e for e in self.events if e.host == addr]


def load_trace(path: str) -> list[TraceEvent]:
    """Read a JSON-lines capture produced by :meth:`PacketTracer.save`.

    Tolerates flight-recorder captures: a leading ``_meta`` line (ring
    truncation marker) is skipped, unknown fields from newer writers are
    ignored, and out-of-order records are re-sorted so downstream
    analyzers always see a time-ordered stream even when the first
    events of the run are missing.
    """
    fields = set(TraceEvent._fields)
    out: list[TraceEvent] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "_meta" in record:
                continue
            out.append(TraceEvent(**{k: v for k, v in record.items()
                                     if k in fields}))
    out.sort(key=lambda e: e.t_us)
    return out


def trace_meta(path: str) -> Optional[dict]:
    """The ``_meta`` record of a saved capture, or ``None`` if the
    capture is complete (no truncation marker)."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                record = json.loads(line)
                return record.get("_meta")
    return None
