"""Causal lineage: a per-run DAG of *semantic* events and their causes.

Every interesting thing that happens in a run -- a segment leaving or
reaching a host, a protocol timer firing, a fault action executing, a
packet being dropped, a gap being detected -- becomes a
:class:`CauseNode` with an edge to the event that caused it.  The
tx/rx/drop nodes come from the packet seam (:mod:`repro.trace.tracer`),
which the recorder subscribes to like any other consumer: the network
and kernel models never name it.  The engine does the heavy lifting:
while an event executes, any event it schedules inherits the executing
event's nearest *labelled* ancestor (``LineageRecorder.current``), so
causality flows through arbitrarily long chains of unlabelled
bookkeeping callbacks (CPU charging, NIC rings, medium propagation)
without instrumenting each of them.

Two refinements keep the edges exact where FIFO hardware would smear
them:

* packets carry their tx node id (``NetPacket.cause``), so an rx/drop
  node is parented to *its own* transmission even when the NIC ring
  serviced it during another packet's completion context, and
* sender segments carry a pending cause (``SKBuff.cause``) stamped when
  a NAK queues the retransmission, so the eventual retransmit is
  parented to the NAK that asked for it, not to the transmit-timer tick
  that happened to serve the queue.

Fault actions additionally leave their node id on the component they
poison (``nic.fault_cause``, ``link.fault_cause``), and every drop that
the poisoned component reports at the seam carries that id as a
``blame`` edge -- this is what lets ``why(seq)`` walk from a recovered
byte all the way back to ``fault:nic_burst_drop(plan[2])``.

Memory is bounded: the node store is a ring pruned oldest-first once
``max_nodes`` is exceeded, except that *fault* nodes (lineage roots
referenced by live component state via ``fault_cause``/``blame``) are
pinned.  A backward walk that steps off the pruned edge reports the
truncation instead of fabricating a root.

Everything here is pure bookkeeping: no randomness is drawn, no
simulator events are scheduled, no segment is copied, and the only
writes are the two ``cause`` slots above, which nothing else reads, so a
lineage-enabled run is byte-identical (packet trace and counters) to a
bare run -- the zero-perturbation regression in ``tests/obs`` covers
this configuration too.
"""

from __future__ import annotations

import json
from collections import OrderedDict, deque
from typing import Optional

from repro.core.types import PacketType

__all__ = ["CauseNode", "LineageRecorder", "load_lineage", "walk_chain"]

_PTYPE_NAMES = {int(t): t.name for t in PacketType}
_DATA = int(PacketType.DATA)


def walk_chain(nodes, start, max_depth: int = 64):
    """Walk ``parent`` edges from ``start`` (a node or an eid) toward
    the root through any eid->node mapping (a live recorder's store or
    a loaded lineage file).  Returns ``(chain, truncated)``,
    effect-first; ``truncated`` means a pruned parent or the depth
    limit stopped the walk."""
    node = start if isinstance(start, CauseNode) else nodes.get(start)
    out: "list[CauseNode]" = []
    seen: "set[int]" = set()
    truncated = False
    while node is not None:
        if node.eid in seen or len(out) >= max_depth:
            truncated = True
            break
        seen.add(node.eid)
        out.append(node)
        if node.parent == 0:
            break
        nxt = nodes.get(node.parent)
        if nxt is None:
            truncated = True
            break
        node = nxt
    return out, truncated

#: node kinds that survive ring pruning (lineage roots that live
#: component state may still reference through ``fault_cause``/``blame``)
_PINNED_KINDS = frozenset({"fault"})


class CauseNode:
    """One semantic event in the causal DAG.

    ``parent`` is the scheduling/semantic cause (0 = root); ``blame``
    is an optional second edge to the fault action responsible (drops
    performed by a poisoned component).  ``seq``/``end`` describe the
    byte range the event concerns (-1 when not applicable).
    """

    __slots__ = ("eid", "parent", "blame", "t_us", "kind", "host",
                 "what", "seq", "end", "tries", "detail")

    def __init__(self, eid: int, parent: int, blame: int, t_us: int,
                 kind: str, host: str, what: str, seq: int, end: int,
                 tries: int, detail: str):
        self.eid = eid
        self.parent = parent
        self.blame = blame
        self.t_us = t_us
        self.kind = kind
        self.host = host
        self.what = what
        self.seq = seq
        self.end = end
        self.tries = tries
        self.detail = detail

    # -- presentation ---------------------------------------------------

    def label(self) -> str:
        """Human-readable one-liner, e.g. ``tx:NAK(51200+1424)@10.0.0.2``."""
        if self.seq >= 0 and self.end > self.seq:
            rng = f"({self.seq}+{self.end - self.seq})"
        elif self.seq >= 0:
            rng = f"({self.seq})"
        else:
            rng = ""
        tries = f"#{self.tries}" if self.tries > 1 else ""
        at = f"@{self.host}" if self.host else ""
        detail = f" [{self.detail}]" if self.detail else ""
        return f"{self.kind}:{self.what}{rng}{tries}{at}{detail}"

    def covers(self, seq: int) -> bool:
        """Whether this node's byte range contains ``seq``."""
        return self.seq >= 0 and self.seq <= seq < max(self.end, self.seq + 1)

    def as_record(self) -> dict:
        return {"eid": self.eid, "parent": self.parent,
                "blame": self.blame, "t_us": self.t_us,
                "kind": self.kind, "host": self.host, "what": self.what,
                "seq": self.seq, "end": self.end, "tries": self.tries,
                "detail": self.detail}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CauseNode({self.eid} <- {self.parent}: {self.label()})"


class LineageRecorder:
    """Builds the causal DAG; attach as ``Simulator.lineage`` and
    subscribe :meth:`on_packet` to the run's packet tracer.

    The engine reads and writes :attr:`current` (the node id of the
    nearest labelled ancestor of the executing callback); timers,
    processes, the fault injector and the protocol's gap detection call
    :meth:`emit` behind ``lin = sim.lineage; if lin is not None``, and
    every segment sent, received or dropped arrives through the packet
    seam -- a bare run pays one attribute read per site either way.
    """

    def __init__(self, sim, *, max_nodes: int = 200_000,
                 max_drops: int = 20_000):
        if max_nodes < 1024:
            raise ValueError("max_nodes too small to be useful")
        self._sim = sim
        self.max_nodes = int(max_nodes)
        self.nodes: "OrderedDict[int, CauseNode]" = OrderedDict()
        #: drop nodes for DATA segments, kept separately so ``why`` can
        #: find the loss for a byte range even after ring pruning
        self.drops: "deque[CauseNode]" = deque(maxlen=max_drops)
        self.current = 0          # nearest labelled ancestor of executing event
        self.pruned = 0           # nodes evicted by the ring bound
        self._next_eid = 1

    # -- emission -------------------------------------------------------

    def emit(self, kind: str, host: str = "", what: str = "", *,
             seq: int = -1, end: int = -1, tries: int = 0,
             parent: Optional[int] = None, blame: int = 0,
             detail: str = "", advance: bool = True) -> int:
        """Record one semantic event; returns its node id.

        ``parent=None`` links to the currently executing event's
        lineage; pass an explicit id to override (packet delivery uses
        the packet's tx node).  ``advance=True`` makes this node the
        lineage of everything the current callback schedules next.
        """
        eid = self._next_eid
        self._next_eid = eid + 1
        node = CauseNode(eid, self.current if parent is None else parent,
                         blame, self._sim.now, kind, host, what,
                         seq, end, tries, detail)
        self.nodes[eid] = node
        if advance:
            self.current = eid
        if len(self.nodes) > self.max_nodes:
            self._prune()
        return eid

    def on_packet(self, now: int, fact: str, where: str, pkt,
                  blame: int = 0) -> None:
        """Packet-seam subscriber: one node per segment sent, received
        or dropped, parented to its packet's own tx (``pkt.cause``).  A
        tx consumes the segment's pending cause (the NAK that queued a
        retransmission) and is stamped on the packet instead of made the
        engine context, as the NIC rings serialize completions; an rx
        becomes the context of what protocol processing does next; a
        DATA drop is also indexed for ``why(seq)``."""
        skb = pkt.segment
        seq, ptype = skb.seq, skb.ptype
        end = seq + skb.length if skb.length > 0 else seq
        if fact == "tx" or fact == "rx":
            what = _PTYPE_NAMES.get(ptype) or f"type{int(ptype)}"
            if fact == "tx":
                cause, skb.cause = skb.cause, 0
                pkt.cause = self.emit("tx", where, what, seq=seq, end=end,
                                      tries=skb.tries, parent=cause or None,
                                      advance=False)
            else:
                self.emit("rx", where, what, seq=seq, end=end,
                          tries=skb.tries, parent=pkt.cause)
            return
        eid = self.emit("drop", where, fact, seq=seq, end=end,
                        tries=skb.tries, parent=pkt.cause, blame=blame,
                        advance=False)
        if ptype == _DATA:
            self.drops.append(self.nodes[eid])

    # -- pruning --------------------------------------------------------

    def _prune(self) -> None:
        """Evict the oldest unpinned quarter of the store.  Fault nodes
        stay (live component state references them); walks that step
        onto an evicted id report the truncation."""
        target = self.max_nodes - self.max_nodes // 4
        survivors: "OrderedDict[int, CauseNode]" = OrderedDict()
        evictable = len(self.nodes) - target
        for eid, node in self.nodes.items():
            if evictable > 0 and node.kind not in _PINNED_KINDS:
                evictable -= 1
                self.pruned += 1
                continue
            survivors[eid] = node
        self.nodes = survivors

    # -- queries --------------------------------------------------------

    def node(self, eid: int) -> Optional[CauseNode]:
        return self.nodes.get(eid)

    def chain(self, start: "int | CauseNode",
              max_depth: int = 64) -> tuple[list[CauseNode], bool]:
        """Walk ``parent`` edges from ``start`` toward the root.

        Returns ``(nodes, truncated)`` ordered effect-first;
        ``truncated`` is True when the walk stepped onto a pruned node
        or hit ``max_depth``.
        """
        return walk_chain(self.nodes, start, max_depth)

    def find(self, *, kind: Optional[str] = None,
             what: Optional[str] = None, host: Optional[str] = None,
             covering: Optional[int] = None) -> list[CauseNode]:
        """All stored nodes matching the given filters, oldest first."""
        out = []
        for node in self.nodes.values():
            if kind is not None and node.kind != kind:
                continue
            if what is not None and node.what != what:
                continue
            if host is not None and node.host != host:
                continue
            if covering is not None and not node.covers(covering):
                continue
            out.append(node)
        return out

    def drops_covering(self, seq: int) -> list[CauseNode]:
        """Loss-index lookup: every recorded DATA drop containing ``seq``."""
        return [n for n in self.drops if n.covers(seq)]

    def stats(self) -> dict:
        return {"nodes": len(self.nodes), "pruned": self.pruned,
                "drops_indexed": len(self.drops),
                "next_eid": self._next_eid}

    # -- persistence ----------------------------------------------------

    def save(self, path: str) -> int:
        """Write the DAG as JSON lines (a ``_meta`` header, then nodes
        in id order).  Deterministic: identical seed + plan produce a
        byte-identical file.  Returns the node count."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"_meta": self.stats()},
                                separators=(",", ":")))
            fh.write("\n")
            for node in self.nodes.values():
                fh.write(json.dumps(node.as_record(),
                                    separators=(",", ":")))
                fh.write("\n")
        return len(self.nodes)


def load_lineage(path: str) -> tuple[dict[int, CauseNode], dict]:
    """Read a saved lineage file; returns ``(eid -> node, meta)``.

    Raises ``ValueError`` for structurally corrupt files so callers can
    turn it into a one-line CLI error instead of a traceback.
    """
    nodes: dict[int, CauseNode] = {}
    meta: dict = {}
    fields = ("eid", "parent", "blame", "t_us", "kind", "host", "what",
              "seq", "end", "tries", "detail")
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if "_meta" in record:
                    meta = record["_meta"]
                    continue
                node = CauseNode(*(record[f] for f in fields))
                nodes[node.eid] = node
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"corrupt lineage file {path!r}: {exc}") from None
    return nodes, meta

