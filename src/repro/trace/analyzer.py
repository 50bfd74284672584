"""Offline analysis of packet captures.

Pure functions over lists of :class:`~repro.trace.tracer.TraceEvent`;
NumPy is used for the timeline bucketing so multi-million-event traces
stay fast -- imported by the three functions that use it, because every
run imports this package (harness -> tracer) and none of them plots.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.core.types import PacketType
from repro.trace.tracer import TraceEvent, load_trace, trace_meta

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["load_capture", "packet_summary", "throughput_timeline",
           "sequence_progress", "sparkline", "feedback_latency"]

_BARS = "▁▂▃▄▅▆▇█"


def load_capture(path: str) -> tuple[list[TraceEvent], Optional[dict]]:
    """Load a saved capture together with its ``_meta`` record.

    Returns ``(events, meta)`` where ``meta`` is the truncation marker
    dict written by :meth:`PacketTracer.save` (``{"truncated": True,
    "ring": ..., "dropped": N}``) or ``None`` for a complete capture.
    Analysis of a truncated capture is analysis of a *suffix* of the
    run -- pass ``meta`` on to :func:`packet_summary` so the gap is
    surfaced in the output rather than silently folded into the stats.
    """
    return load_trace(path), trace_meta(path)


def packet_summary(events: Sequence[TraceEvent],
                   meta: Optional[dict] = None) -> dict[str, dict]:
    """Per-packet-type counts and bytes, plus retransmission stats.

    ``meta`` is the capture's ``_meta`` record (see
    :func:`load_capture`); a truncated capture is surfaced as a
    ``"_capture"`` entry so counts are read as lower bounds.
    """
    out: dict[str, dict] = defaultdict(lambda: {"count": 0, "bytes": 0})
    retrans = {"count": 0, "bytes": 0}
    for ev in events:
        if ev.direction != "tx":
            continue
        entry = out[ev.type_name]
        entry["count"] += 1
        # only DATA carries payload; control packets reuse the length
        # field for range bookkeeping
        if ev.ptype == int(PacketType.DATA):
            entry["bytes"] += ev.length
            if ev.is_retransmission:
                retrans["count"] += 1
                retrans["bytes"] += ev.length
    result = dict(out)
    data = result.get("DATA", {"count": 0, "bytes": 0})
    result["_retransmissions"] = dict(
        retrans,
        ratio=(retrans["count"] / data["count"] if data["count"] else 0.0))
    if meta is not None and meta.get("truncated"):
        result["_capture"] = {"truncated": True,
                              "dropped": int(meta.get("dropped", 0)),
                              "ring": bool(meta.get("ring", False))}
    return result


def throughput_timeline(events: Sequence[TraceEvent], *,
                        bucket_us: int = 100_000, host: Optional[str] = None,
                        direction: str = "rx") -> tuple[np.ndarray, np.ndarray]:
    """(bucket_start_us, bytes_per_second) series of DATA goodput."""
    import numpy as np
    ts, sizes = [], []
    for ev in events:
        if ev.direction != direction or ev.ptype != int(PacketType.DATA):
            continue
        if host is not None and ev.host != host:
            continue
        ts.append(ev.t_us)
        sizes.append(ev.length)
    if not ts:
        return np.array([], dtype=np.int64), np.array([])
    t = np.asarray(ts, dtype=np.int64)
    s = np.asarray(sizes, dtype=np.float64)
    start = int(t.min()) - int(t.min()) % bucket_us
    idx = (t - start) // bucket_us
    nbuckets = int(idx.max()) + 1
    per_bucket = np.bincount(idx, weights=s, minlength=nbuckets)
    times = start + np.arange(nbuckets, dtype=np.int64) * bucket_us
    return times, per_bucket * (1e6 / bucket_us)


def sequence_progress(events: Sequence[TraceEvent], host: str
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(t_us, highest end-seq seen) at a receiving host -- the stream's
    forward progress, flat spots marking recovery stalls."""
    import numpy as np
    ts, seqs = [], []
    high = 0
    for ev in events:
        if ev.host != host or ev.direction != "rx" or \
                ev.ptype != int(PacketType.DATA):
            continue
        end = ev.seq + ev.length
        if end > high:
            high = end
            ts.append(ev.t_us)
            seqs.append(high)
    return np.asarray(ts, dtype=np.int64), np.asarray(seqs, dtype=np.int64)


def feedback_latency(events: Sequence[TraceEvent], *,
                     sender: str) -> dict[str, float]:
    """Mean time from a NAK arriving at the sender to the first
    retransmission covering its range leaving the sender (repair
    service latency, in microseconds)."""
    naks = [(e.t_us, e.seq) for e in events
            if e.host == sender and e.direction == "rx"
            and e.ptype == int(PacketType.NAK)]
    retr = [(e.t_us, e.seq, e.seq + e.length) for e in events
            if e.host == sender and e.direction == "tx"
            and e.is_retransmission]
    if not naks or not retr:
        return {"samples": 0, "mean_us": 0.0, "max_us": 0.0}
    lats = []
    for t_nak, seq in naks:
        for t_r, s, e in retr:
            if t_r >= t_nak and s <= seq < e:
                lats.append(t_r - t_nak)
                break
    if not lats:
        return {"samples": 0, "mean_us": 0.0, "max_us": 0.0}
    return {"samples": len(lats), "mean_us": sum(lats) / len(lats),
            "max_us": float(max(lats))}


def sparkline(values: Iterable[float], width: int = 60) -> str:
    """Render a series as a unicode sparkline (terminal-friendly)."""
    import numpy as np
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size == 0:
        return ""
    if vals.size > width:
        # average down to `width` buckets
        edges = np.linspace(0, vals.size, width + 1).astype(int)
        vals = np.asarray([vals[a:b].mean() if b > a else 0.0
                           for a, b in zip(edges, edges[1:])])
    lo, hi = float(vals.min()), float(vals.max())
    if hi <= lo:
        return _BARS[0] * vals.size
    scaled = (vals - lo) / (hi - lo) * (len(_BARS) - 1)
    return "".join(_BARS[int(round(v))] for v in scaled)
