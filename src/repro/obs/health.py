"""Protocol health of a finished run (``repro.obs.health``).

The H-RMC roles keep their recovery books as always-on plain counters,
the way a kernel protocol keeps ``/proc/net/snmp``, and name them in
``HRMCSender.books()`` and ``HRMCReceiver.books()``.  Every run records
them in ``TransferResult.books`` (a receiver's rejoined socket too) and
:func:`payload` reads that record, so nothing is attached to the run and
a fresh run, a cached fleet cell and a rejoin read the same way.  A
baseline keeps no books: its payload is its sender's counters.

Four measurement families (DESIGN.md section 5h), so the paper's
feedback quantities (Fig. 11, the section 5.2 flat-feedback claim) and
the "SRM at 30" scaling lessons compare across runs:

* **NAK-suppression ledger** -- each re-NAK opportunity at a NAK-manager
  tick is *sent*, *suppressed-by-timer* or *suppressed-by-peer* (a
  peer's multicast repair made it moot); duplicate data arrivals are
  the error term.
* **Feedback-implosion index** -- NAKs at the sender per rate-cut loss
  event: flat as the group grows when suppression works.
* **Repair economics** -- useful vs redundant retransmissions and
  bytes, repair-cache pressure, peer-repair suppression and requests
  the sender deflected.
* **Recovery lag** -- gap-open -> gap-fill latency per host, the worst
  host, and abandoned (NAK_ERR) / unresolved gaps, with its percentiles
  read from a fixed-bucket :class:`Histogram`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional

__all__ = ["payload", "health_cell", "CELL_COLUMNS", "summary_tables",
           "suppression_effectiveness", "Histogram", "LAG_BOUNDS_US"]

#: recovery-lag bucket edges (us): gap detected -> gap filled spans a
#: couple of RTTs on a healthy path and whole back-off cycles on a sick
#: one
LAG_BOUNDS_US = (1_000, 5_000, 10_000, 25_000, 50_000, 100_000,
                 250_000, 500_000, 1_000_000, 2_000_000, 5_000_000)


class Histogram:
    """A fixed-bucket histogram (cumulative-style bucket bounds).

    ``bounds`` are the inclusive upper edges of the first
    ``len(bounds)`` buckets; one overflow bucket catches everything
    beyond the last bound.  Fixed buckets keep observation O(log n) and
    make the percentiles a pure function of the samples.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total",
                 "min", "max")

    def __init__(self, name: str, bounds: Iterable[float]):
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError(f"{name}: bounds must be strictly increasing")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q`` quantile from the buckets:
        the bucket's upper edge, but never above the observed maximum
        (which the overflow bucket reports), so p50 <= p90 <= max."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target and c:
                if i < len(self.bounds):
                    return min(self.bounds[i], float(self.max))
                break
        return float(self.max)

    def bucket_rows(self) -> list[tuple[str, int]]:
        """(upper-edge label, count) per bucket, the overflow last."""
        rows = [(f"<= {int(b)}", c)
                for b, c in zip(self.bounds, self.counts)]
        rows.append((f"> {int(self.bounds[-1])}", self.counts[-1]))
        return rows

    def render(self, width: int = 40) -> str:
        """Terminal bar chart of the bucket distribution."""
        peak = max(self.counts) or 1
        lines = [f"{self.name}: n={self.count} mean={self.mean:.0f} "
                 f"p50={self.quantile(0.5):.0f} p90={self.quantile(0.9):.0f} "
                 f"max={self.max if self.max is not None else 0:.0f}"]
        for label, c in self.bucket_rows():
            bar = "#" * round(width * c / peak)
            lines.append(f"  {label:>12} {c:>8} {bar}")
        return "\n".join(lines)


def suppression_effectiveness(sent: int, timer: int, peer: int) -> float:
    opportunities = sent + timer + peer
    return (timer + peer) / opportunities if opportunities else 0.0


def payload(result) -> dict:
    """The compact JSON-safe health document of a run record, fresh or
    rebuilt by ``TransferResult.from_dict``: what the experiments gate
    and ``report --metrics-out`` saves.  The suppression, lag, update
    and other H-RMC-only keys are there only when the books are."""
    sstats = result.sender_stats
    doc = {
        "group_size": result.n_receivers,
        "implosion": {
            "naks_at_sender": sstats.naks_rcvd,
            "feedback_at_sender": (sstats.naks_rcvd + sstats.updates_rcvd
                                   + sstats.rate_requests_rcvd
                                   + sstats.urgent_requests_rcvd),
        },
        "repair": {"retrans_pkts": sstats.retrans_pkts,
                   "retrans_bytes": sstats.retrans_bytes},
    }
    if not result.books:
        return doc
    sender, receivers = result.books["sender"], result.books["receivers"]

    def total(key: str) -> int:
        return sum(r[key] for r in receivers)

    sent = total("naks_sent")
    timer = total("suppressed_timer")
    peer = total("naks_suppressed_peer")
    useful = total("repairs_useful")
    redundant = total("repairs_redundant")
    losses = sender["loss_events"]

    # one row per host: a rejoined socket's lags join its first one's
    hist = Histogram("health.recovery_lag_us", LAG_BOUNDS_US)
    lags_by_host: dict[str, list[int]] = {}
    for r in receivers:
        lags_by_host.setdefault(r["host"], []).extend(r["lags_us"])
        for lag in r["lags_us"]:
            hist.observe(lag)
    per_host = [{"host": host, "filled": len(lags),
                 "mean_us": round(sum(lags) / len(lags), 1),
                 "max_us": max(lags)}
                for host, lags in sorted(lags_by_host.items()) if lags]
    worst = max(per_host, key=lambda row: row["max_us"],
                default={"host": None, "max_us": 0})
    doc["suppression"] = {
        "gaps_opened": total("gaps_opened"),
        "gap_bytes": total("gap_bytes"),
        "naks_sent": sent,
        "naks_resent": total("naks_resent"),
        "suppressed_timer": timer,
        "suppressed_peer": peer,
        "duplicate_data": total("dup_pkts_rcvd"),
        "effectiveness": round(
            suppression_effectiveness(sent, timer, peer), 4),
    }
    doc["implosion"].update(
        loss_events=losses, nak_errs=sstats.nak_errs_sent,
        index=round(sstats.naks_rcvd / losses, 3) if losses else 0.0)
    doc["repair"].update(
        useful=useful, redundant=redundant,
        redundant_bytes=total("repair_redundant_bytes"),
        redundant_ratio=round(redundant / (useful + redundant), 4)
        if useful + redundant else 0.0,
        deflected=sender["repairs_deflected"],
        cache={"inserts": total("cache_inserts"),
               "evictions": total("cache_evictions"),
               "overwrite_skips": total("cache_overwrites"),
               "hits": total("cache_hits"),
               "misses": total("cache_misses"),
               "peer_suppressed": total("repairs_suppressed")})
    doc["lag"] = {
        "filled": total("gaps_filled"),
        "abandoned": total("gaps_abandoned"),
        "unresolved": total("unresolved"),
        "mean_us": round(hist.mean, 1) if hist.count else 0.0,
        "p50_us": round(hist.quantile(0.5), 1) if hist.count else 0.0,
        "p90_us": round(hist.quantile(0.9), 1) if hist.count else 0.0,
        "max_us": hist.max if hist.count else 0,
        "worst_host": worst["host"],
        "worst_max_us": worst["max_us"],
        "per_host": per_host,
    }
    doc["update"] = {"ups": total("adjust_ups"),
                     "downs": total("adjust_downs")}
    return doc


def health_cell(doc: dict, *, label: str = "",
                throughput_bps: float | None = None) -> dict:
    """An H-RMC run's :func:`payload` as one flat row of numbers: what
    the ``protocol-health`` experiment and ``scaling``'s feedback cells
    gate."""
    def num(section: str, key: str) -> float:
        return float(doc[section][key])

    cell = {
        "label": label,
        "group_size": int(doc["group_size"]),
        "effectiveness": num("suppression", "effectiveness"),
        "naks_sent": num("suppression", "naks_sent"),
        "suppressed": (num("suppression", "suppressed_timer")
                       + num("suppression", "suppressed_peer")),
        "feedback_at_sender": num("implosion", "feedback_at_sender"),
        "naks_at_sender": num("implosion", "naks_at_sender"),
        "loss_events": num("implosion", "loss_events"),
        "implosion_index": num("implosion", "index"),
        "retrans_pkts": num("repair", "retrans_pkts"),
        "retrans_bytes": num("repair", "retrans_bytes"),
        "redundant_ratio": num("repair", "redundant_ratio"),
        "mean_lag_us": num("lag", "mean_us"),
        "worst_lag_us": num("lag", "worst_max_us"),
        "unresolved": num("lag", "unresolved"),
    }
    if throughput_bps is not None:
        cell["throughput_mbps"] = round(float(throughput_bps) / 1e6, 3)
    return cell


#: the columns of a table of cells, in print order
CELL_COLUMNS = ("label", "group_size", "throughput_mbps", "effectiveness",
                "naks_sent", "suppressed", "feedback_at_sender",
                "implosion_index", "redundant_ratio", "retrans_bytes",
                "mean_lag_us", "worst_lag_us", "unresolved")


def summary_tables(doc: dict) -> list[tuple[str, list, list]]:
    """(title, headers, rows) tables of a :func:`payload`, in the
    harness-report shape."""
    imp, rep = doc["implosion"], doc["repair"]
    if "suppression" not in doc:     # a baseline: no NAKs, no books
        return [("protocol health: feedback & retransmissions",
                 ["metric", "value"],
                 [["feedback pkts at sender", imp["feedback_at_sender"]],
                  ["retransmissions", rep["retrans_pkts"]],
                  ["retransmitted bytes", rep["retrans_bytes"]]])]
    sup = doc["suppression"]
    ledger = [
        ["NAKs sent", sup["naks_sent"]],
        ["  of which re-sends", sup["naks_resent"]],
        ["suppressed by timer", sup["suppressed_timer"]],
        ["suppressed by peer repair", sup["suppressed_peer"]],
        ["duplicate data arrivals", sup["duplicate_data"]],
        ["suppression effectiveness", f"{sup['effectiveness']:.1%}"],
    ]
    econ = [
        ["NAKs at sender", imp["naks_at_sender"]],
        ["loss events (rate cuts)", imp["loss_events"]],
        ["implosion index (NAKs/loss event)", imp["index"]],
        ["feedback pkts at sender", imp["feedback_at_sender"]],
        ["retransmissions", rep["retrans_pkts"]],
        ["useful repairs", rep["useful"]],
        ["redundant repairs", rep["redundant"]],
        ["redundant repair bytes", rep["redundant_bytes"]],
        ["redundant-repair ratio", f"{rep['redundant_ratio']:.1%}"],
        ["requests deflected (in flight)", rep["deflected"]],
        ["cache hit/miss/evict",
         f"{rep['cache']['hits']}/{rep['cache']['misses']}"
         f"/{rep['cache']['evictions']}"],
    ]
    tables = [
        ("protocol health: NAK-suppression ledger",
         ["outcome", "count"], ledger),
        ("protocol health: implosion & repair economics",
         ["metric", "value"], econ),
    ]
    lag = doc["lag"]
    if lag["per_host"]:
        rows = [[r["host"], r["filled"], r["mean_us"], r["max_us"]]
                for r in lag["per_host"]]
        rows.append(["(all)", lag["filled"], lag["mean_us"],
                     lag["max_us"]])
        tables.append(("protocol health: recovery lag (us)",
                       ["receiver", "filled", "mean", "max"], rows))
    return tables
