"""Per-host packet capture.

Attaches to the packet tap of :class:`repro.kernel.host.Host` and
records one :class:`TraceEvent` per segment sent or received by that
host.  Capture is observational: the protocol under trace is unchanged
(events are plain records, segments are not copied).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, NamedTuple, Optional

from repro.core.types import PacketType
from repro.kernel.host import Host
from repro.kernel.skbuff import SKBuff

__all__ = ["TraceEvent", "PacketTracer", "load_trace", "trace_meta"]


class TraceEvent(NamedTuple):
    """One captured segment (built positionally on the tap, in field
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
    """Capture traffic at one or more hosts.

    >>> tracer = PacketTracer()
    >>> tracer.attach(scenario.sender, *scenario.receivers)
    >>> ... run the simulation ...
    >>> events = tracer.events
    >>> tracer.save("run.trace.jsonl")

    With ``ring=True`` the capture keeps only the most recent
    ``max_events`` records (a flight recorder for long chaos runs)
    instead of truncating at the cap; ``dropped`` counts records lost
    off either end.  ``listeners`` are invoked for every event before
    it is stored, independent of any cap, so online consumers (e.g. the
    invariant checker) always see the full stream.  ``subscribers``
    receive the tap's own facts ``(now_us, host, direction, peer,
    skb)`` instead of a record -- the live ``SKBuff`` is read-only --
    for consumers that need segment bookkeeping the record does not
    carry (NIC wire-departure stamps for span stitching) or that read
    too few fields to pay for one.

    A :class:`TraceEvent` is built only for a reader: when a listener
    is registered or the capture keeps anything (``max_events=0`` keeps
    nothing, so a subscriber-only tracer never builds a record).
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
        self.listeners: list[Callable[[TraceEvent], None]] = []
        self.subscribers: list[
            Callable[[int, str, str, str, SKBuff], None]] = []
        self._hosts: list[Host] = []

    def attach(self, *hosts: Host) -> "PacketTracer":
        for host in hosts:
            if host.tap is not None:
                raise RuntimeError(f"{host.name} already has a tap")
            host.tap = self._make_tap(host)
            self._hosts.append(host)
        return self

    def detach(self) -> None:
        for host in self._hosts:
            host.tap = None
        self._hosts.clear()

    def _make_tap(self, host: Host):
        name = host.addr
        events = self.events
        max_events = self.max_events
        keeps = max_events != 0
        ring = self.ring
        listeners = self.listeners
        subscribers = self.subscribers

        def tap(direction: str, skb: SKBuff, peer: str, now: int) -> None:
            if listeners or keeps:
                ev = TraceEvent(now, name, direction, peer, int(skb.ptype),
                                skb.seq, skb.length, skb.rate_adv,
                                skb.tries, skb.flags)
                for listener in listeners:
                    listener(ev)
            for subscriber in subscribers:
                subscriber(now, name, direction, peer, skb)
            if not keeps:
                self.dropped += 1
            elif max_events is None or len(events) < max_events:
                events.append(ev)
            else:
                # full: a list drops the new record, a ring (deque with
                # maxlen) evicts its oldest -- a record is lost either way
                self.dropped += 1
                if ring:
                    events.append(ev)

        return tap

    def add_listener(self, fn: Callable[[TraceEvent], None]) -> None:
        """Call ``fn(event)`` for every captured event (before storage)."""
        self.listeners.append(fn)

    def subscribe(self,
                  fn: Callable[[int, str, str, str, SKBuff], None]) -> None:
        """Call ``fn(now_us, host, direction, peer, skb)`` for every
        tapped segment, after the listeners.  The skb is the live
        segment -- subscribers must treat it as read-only."""
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

    def of_type(self, ptype: PacketType) -> list[TraceEvent]:
        return [e for e in self.events if e.ptype == int(ptype)]


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
