"""Protocol health of a finished H-RMC run (``repro.obs.health``).

The H-RMC roles keep their recovery books themselves, as plain counters
that are always on -- the way a kernel protocol keeps
``/proc/net/snmp`` -- and this module reads them after the run.
Nothing is attached to the run, so a run whose health is read is the
bare run:

* the receiver's ``NakList``: gaps opened (and their bytes), filled or
  abandoned after a NAK_ERR, re-NAKs the suppression timer withheld,
  and one gap-open -> gap-fill lag per filled gap;
* the receiver: re-sent NAKs, pending NAKs a peer's repair answered,
  useful and redundant repairs, and the repair cache's traffic;
* the sender: rate-cutting loss events and deflected repair requests;
* and, read rather than re-counted, ``Counters`` (``naks_sent``,
  ``dup_pkts_rcvd``, ``naks_rcvd``, ``nak_errs_sent``) and the
  ``UpdatePolicy`` adjustments.

Four measurement families, chosen so the paper's evaluation quantities
(Fig. 11 feedback traffic, the section 5.2 flat-feedback claim) and the "SRM at 30" scaling lessons become
directly comparable across runs:

* **NAK-suppression ledger** -- every re-NAK opportunity at a NAK-
  manager tick is accounted to exactly one outcome: *sent*,
  *suppressed-by-timer* (the local suppression interval withheld it)
  or *suppressed-by-peer* (a peer's multicast repair made the pending
  NAK moot); duplicate data arrivals are the ledger's error term.
* **Feedback-implosion index** -- NAKs arriving at the sender per
  rate-cut loss event.  Suppression working means this stays flat as
  the group grows; it blowing up with group size is the implosion
  failure mode SRM's scaling post-mortem warns about.
* **Repair economics** -- requested vs useful vs redundant
  retransmissions, redundant repair bytes on the wire, repair-cache
  pressure (hits / misses / evictions / overwrite-skips), peer-repair
  suppression, and sender-side deflection of duplicate requests.
* **Recovery lag** -- per-receiver gap-open -> gap-fill latency
  (histogram + per-host aggregates), the worst receiver, and
  abandoned (NAK_ERR) / unresolved gaps.

The read covers the endpoints the run's statistics cover
(``TransferResult.sockets``): a receiver that rejoined after a crash
is in neither.
"""

from __future__ import annotations

from repro.obs.metrics import Histogram

__all__ = ["payload", "health_cell", "CELL_COLUMNS", "summary_tables",
           "suppression_effectiveness"]

#: recovery-lag bucket edges (us): gap detected -> gap filled spans a
#: couple of RTTs on a healthy path and whole back-off cycles on a sick
#: one, so the buckets run wider than the packet-lifecycle bounds
LAG_BOUNDS_US = (1_000, 5_000, 10_000, 25_000, 50_000, 100_000,
                 250_000, 500_000, 1_000_000, 2_000_000, 5_000_000)


def suppression_effectiveness(sent: int, timer: int, peer: int) -> float:
    opportunities = sent + timer + peer
    return (timer + peer) / opportunities if opportunities else 0.0


def payload(result) -> dict:
    """The compact JSON-safe health document of a finished run: what
    crosses the fleet worker boundary and what ``report --metrics-out``
    saves.  Endpoints without an H-RMC role
    (the baselines, the TCP-like reference) contribute nothing."""
    ssock, rsocks = result.sockets
    sender = getattr(getattr(ssock, "transport", None), "sender", None)
    receivers = [r for r in (getattr(s.transport, "receiver", None)
                             for s in rsocks) if r is not None]
    naks = [r.naks for r in receivers]

    def total(objs, attr: str) -> int:
        return sum(getattr(o, attr) for o in objs)

    stats = [r.stats for r in receivers]
    sent = total(stats, "naks_sent")
    timer = total(naks, "suppressed_timer")
    peer = total(receivers, "naks_suppressed_peer")
    useful = total(receivers, "repairs_useful")
    redundant = total(receivers, "repairs_redundant")
    sstats = sender.stats if sender is not None else None
    naks_rcvd = sstats.naks_rcvd if sstats is not None else 0
    losses = sender.loss_events if sender is not None else 0
    feedback = (sstats.naks_rcvd + sstats.updates_rcvd +
                sstats.rate_requests_rcvd + sstats.urgent_requests_rcvd
                if sstats is not None else 0)

    hist = Histogram("health.recovery_lag_us", LAG_BOUNDS_US)
    per_host = []
    for r in receivers:
        lags = r.naks.lags_us
        for lag in lags:
            hist.observe(lag)
        if lags:
            per_host.append({"host": r.host.addr, "filled": len(lags),
                             "mean_us": round(sum(lags) / len(lags), 1),
                             "max_us": max(lags)})
    per_host.sort(key=lambda row: row["host"])
    worst = max(per_host, key=lambda row: row["max_us"]) if per_host \
        else None
    updates = [r.update for r in receivers]
    return {
        "group_size": len(receivers),
        "suppression": {
            "gaps_opened": total(naks, "gaps_opened"),
            "gap_bytes": total(naks, "gap_bytes"),
            "naks_sent": sent,
            "naks_resent": total(receivers, "naks_resent"),
            "suppressed_timer": timer,
            "suppressed_peer": peer,
            "duplicate_data": total(stats, "dup_pkts_rcvd"),
            "effectiveness": round(
                suppression_effectiveness(sent, timer, peer), 4),
        },
        "implosion": {
            "naks_at_sender": naks_rcvd,
            "loss_events": losses,
            "nak_errs": sstats.nak_errs_sent if sstats is not None else 0,
            "feedback_at_sender": feedback,
            "index": round(naks_rcvd / losses, 3) if losses else 0.0,
        },
        "repair": {
            "retrans_pkts": sstats.retrans_pkts if sstats else 0,
            "retrans_bytes": sstats.retrans_bytes if sstats else 0,
            "useful": useful,
            "redundant": redundant,
            "redundant_bytes": total(receivers, "repair_redundant_bytes"),
            "redundant_ratio": round(redundant / (useful + redundant), 4)
            if useful + redundant else 0.0,
            "deflected": sender.repairs_deflected
            if sender is not None else 0,
            "cache": {
                "inserts": total(receivers, "cache_inserts"),
                "evictions": total(receivers, "cache_evictions"),
                "overwrite_skips": total(receivers, "cache_overwrites"),
                "hits": total(receivers, "cache_hits"),
                "misses": total(receivers, "cache_misses"),
                "peer_suppressed": total(receivers, "repairs_suppressed"),
            },
        },
        "lag": {
            "filled": total(naks, "gaps_filled"),
            "abandoned": total(naks, "gaps_abandoned"),
            "unresolved": sum(len(n) for n in naks),
            "mean_us": round(hist.mean, 1) if hist.count else 0.0,
            "p50_us": round(hist.quantile(0.5), 1) if hist.count else 0.0,
            "p90_us": round(hist.quantile(0.9), 1) if hist.count else 0.0,
            "max_us": hist.max if hist.count else 0,
            "worst_host": worst["host"] if worst else None,
            "worst_max_us": worst["max_us"] if worst else 0,
            "per_host": per_host,
        },
        "update": {"ups": total(updates, "adjust_ups"),
                   "downs": total(updates, "adjust_downs")},
    }


def health_cell(doc: dict, *, label: str = "",
                group_size: int | None = None,
                throughput_bps: float | None = None) -> dict:
    """A :func:`payload` (possibly JSON round-tripped off the fleet
    cache) as one flat row of numbers: what the ``protocol-health``
    experiment and ``scaling``'s feedback cells gate.
    ``group_size`` is the grid coordinate, the payload's own the
    fallback; a missing section reads as zeros."""
    def num(section: str, key: str) -> float:
        v = doc.get(section, {}).get(key, 0)
        return float(v) if isinstance(v, (int, float)) \
            and not isinstance(v, bool) else 0.0

    cell = {
        "label": label,
        "group_size": int(group_size if group_size is not None
                          else doc.get("group_size", 0) or 0),
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
    sup, imp, rep = doc["suppression"], doc["implosion"], doc["repair"]
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
