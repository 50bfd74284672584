"""Cross-run sweep analytics for the protocol-health observatory.

One run's :func:`repro.obs.health.payload` says how a
single world behaved; a *sweep* over a grid (group sizes, loss rates)
says how the protocol *scales*.  This module turns a list of per-run
health payloads into:

* flat per-cell dicts (:func:`health_cell`) -- one row per grid cell,
  every interesting health metric a top-level number,
* log-log power-law fits (:func:`fit_power_law`) with fitted
  exponents -- feedback vs group size (the paper's §5.2 claim is an
  exponent near zero: NAK suppression keeps sender-visible feedback
  flat as groups grow) and repair traffic vs loss rate,
* direction-aware per-cell anomaly flags (:func:`flag_anomalies`)
  -- each cell is gated against the sweep median, with health-specific
  regression directions (an implosion-index *rise* regresses, a
  suppression-effectiveness *drop* regresses).

Everything is pure python over plain dicts: no numpy, no scenario
objects, so the fleet's cached summaries feed it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["PowerLawFit", "CellAnomaly", "fit_power_law", "health_cell",
           "flag_anomalies", "sweep_fits", "sweep_report",
           "HEALTH_LOWER_IS_BETTER", "DEFAULT_ANOMALY_THRESHOLDS"]

#: health metrics where *growth* is the regression direction; everything
#: else (suppression effectiveness, throughput) regresses by dropping
HEALTH_LOWER_IS_BETTER = frozenset({
    "implosion_index", "feedback_at_sender", "naks_sent",
    "redundant_ratio", "retrans_bytes", "mean_lag_us", "worst_lag_us",
    "unresolved",
})

#: per-cell anomaly gates: tolerated fractional drift from the sweep
#: median before a cell is flagged (loose on lag -- it is long-tailed)
DEFAULT_ANOMALY_THRESHOLDS: dict[str, float] = {
    "effectiveness": 0.25,
    "implosion_index": 0.75,
    "redundant_ratio": 0.50,
    "worst_lag_us": 2.0,
}


@dataclass
class PowerLawFit:
    """``y ~ coefficient * x^exponent`` fitted by log-log least squares."""

    x_name: str
    y_name: str
    exponent: float
    coefficient: float
    r2: float
    n: int              # points used
    skipped: int = 0    # points dropped (non-positive / non-numeric)

    def predict(self, x: float) -> float:
        return self.coefficient * (x ** self.exponent)

    def describe(self) -> str:
        return (f"{self.y_name} ~ {self.coefficient:.3g} * "
                f"{self.x_name}^{self.exponent:.3f} "
                f"(r2={self.r2:.3f}, n={self.n})")

    def to_dict(self) -> dict:
        return {"x": self.x_name, "y": self.y_name,
                "exponent": round(self.exponent, 4),
                "coefficient": round(self.coefficient, 4),
                "r2": round(self.r2, 4), "n": self.n,
                "skipped": self.skipped}


@dataclass
class CellAnomaly:
    """One cell metric outside the sweep-median gate."""

    label: str
    metric: str
    value: float
    median: float
    threshold: float
    lower_is_better: bool

    @property
    def direction(self) -> str:
        return "high" if self.lower_is_better else "low"

    def describe(self) -> str:
        return (f"{self.label}: {self.metric}={self.value:g} "
                f"{self.direction} vs sweep median {self.median:g} "
                f"(gate {'+' if self.lower_is_better else '-'}"
                f"{self.threshold:.0%})")

    def to_dict(self) -> dict:
        return {"cell": self.label, "metric": self.metric,
                "value": self.value, "median": self.median,
                "threshold": self.threshold,
                "direction": self.direction}


def fit_power_law(points, *, x_name: str = "x",
                  y_name: str = "y") -> PowerLawFit | None:
    """Fit ``y = c * x^k`` over ``(x, y)`` pairs in log-log space.

    Non-positive or non-numeric points cannot be log-transformed and
    are dropped (counted in ``skipped``).  Returns ``None`` when fewer
    than two usable points with distinct ``x`` remain -- a fit over a
    single grid cell is noise, not a law.
    """
    usable, skipped = [], 0
    for x, y in points:
        if (isinstance(x, (int, float)) and isinstance(y, (int, float))
                and not isinstance(x, bool) and not isinstance(y, bool)
                and x > 0 and y > 0):
            usable.append((math.log(x), math.log(y)))
        else:
            skipped += 1
    if len(usable) < 2 or len({lx for lx, _ in usable}) < 2:
        return None
    n = len(usable)
    mean_lx = sum(lx for lx, _ in usable) / n
    mean_ly = sum(ly for _, ly in usable) / n
    var_lx = sum((lx - mean_lx) ** 2 for lx, _ in usable)
    cov = sum((lx - mean_lx) * (ly - mean_ly) for lx, ly in usable)
    exponent = cov / var_lx
    coefficient = math.exp(mean_ly - exponent * mean_lx)
    ss_tot = sum((ly - mean_ly) ** 2 for _, ly in usable)
    ss_res = sum((ly - (mean_ly + exponent * (lx - mean_lx))) ** 2
                 for lx, ly in usable)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(x_name, y_name, exponent, coefficient, r2, n,
                       skipped)


def health_cell(health: dict, *, label: str = "",
                group_size: int | None = None,
                loss_rate: float | None = None,
                throughput_bps: float | None = None) -> dict:
    """Flatten one run's health payload into a sweep-cell row.

    ``health`` is :func:`repro.obs.health.payload` (possibly JSON
    round-tripped off the fleet cache).  The grid coordinates
    (``group_size``, ``loss_rate``) come from the spec, not the
    payload -- the payload's own ``group_size`` is the fallback.
    Missing sections become zeros so partial payloads still aggregate.
    """
    supp = health.get("suppression", {})
    imp = health.get("implosion", {})
    rep = health.get("repair", {})
    lag = health.get("lag", {})

    def num(section: dict, key: str) -> float:
        v = section.get(key, 0)
        return float(v) if isinstance(v, (int, float)) \
            and not isinstance(v, bool) else 0.0

    cell = {
        "label": label,
        "group_size": int(group_size if group_size is not None
                          else health.get("group_size", 0) or 0),
        "effectiveness": num(supp, "effectiveness"),
        "naks_sent": num(supp, "naks_sent"),
        "suppressed": (num(supp, "suppressed_timer")
                       + num(supp, "suppressed_peer")),
        "feedback_at_sender": num(imp, "feedback_at_sender"),
        "naks_at_sender": num(imp, "naks_at_sender"),
        "loss_events": num(imp, "loss_events"),
        "implosion_index": num(imp, "index"),
        "retrans_pkts": num(rep, "retrans_pkts"),
        "retrans_bytes": num(rep, "retrans_bytes"),
        "redundant_ratio": num(rep, "redundant_ratio"),
        "mean_lag_us": num(lag, "mean_us"),
        "worst_lag_us": num(lag, "worst_max_us"),
        "unresolved": num(lag, "unresolved"),
    }
    if loss_rate is not None:
        cell["loss_rate"] = float(loss_rate)
    if throughput_bps is not None:
        cell["throughput_mbps"] = round(float(throughput_bps) / 1e6, 3)
    return cell


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def flag_anomalies(cells: list[dict],
                   thresholds: dict[str, float] | None = None
                   ) -> list[CellAnomaly]:
    """Gate every cell against the sweep median, direction-aware.

    A cell is flagged when a metric drifts past its fractional gate in
    the metric's bad direction: upward for
    :data:`HEALTH_LOWER_IS_BETTER`, downward for everything else.  A
    metric is gated only when every cell carries it as a number.
    Needs three or more cells -- with fewer, every cell *is* the
    median neighbourhood.
    """
    thresholds = (DEFAULT_ANOMALY_THRESHOLDS if thresholds is None
                  else thresholds)
    if len(cells) < 3:
        return []
    medians: dict[str, float] = {}
    for metric in thresholds:
        values = [float(c[metric]) for c in cells
                  if isinstance(c.get(metric), (int, float))
                  and not isinstance(c.get(metric), bool)]
        if len(values) == len(cells):
            medians[metric] = _median(values)
    flags: list[CellAnomaly] = []
    for cell in cells:
        for metric, median in medians.items():
            value, gate = float(cell[metric]), float(thresholds[metric])
            lower = metric in HEALTH_LOWER_IS_BETTER
            if (value > median * (1.0 + gate) if lower
                    else value < median * (1.0 - gate)):
                flags.append(CellAnomaly(cell.get("label", "?"), metric,
                                         value, median, gate, lower))
    return flags


def sweep_fits(cells: list[dict]) -> dict[str, PowerLawFit]:
    """The canonical scaling fits over a health sweep.

    * ``feedback_vs_group``: sender-visible feedback vs group size --
      the Figure-14 axis; H-RMC's suppression claim is an exponent
      well below 1 (linear growth = feedback implosion).
    * ``implosion_vs_group``: per-loss-event NAK count vs group size.
    * ``repair_vs_loss``: retransmitted bytes vs loss rate (only when
      the sweep varies loss).

    Fits that cannot be formed (single-valued axis, zero metrics) are
    simply absent from the result.
    """
    fits: dict[str, PowerLawFit] = {}
    fb = fit_power_law(
        [(c.get("group_size"), c.get("feedback_at_sender"))
         for c in cells],
        x_name="group_size", y_name="feedback_at_sender")
    if fb is not None:
        fits["feedback_vs_group"] = fb
    imp = fit_power_law(
        [(c.get("group_size"), c.get("implosion_index")) for c in cells],
        x_name="group_size", y_name="implosion_index")
    if imp is not None:
        fits["implosion_vs_group"] = imp
    rep = fit_power_law(
        [(c.get("loss_rate"), c.get("retrans_bytes")) for c in cells],
        x_name="loss_rate", y_name="retrans_bytes")
    if rep is not None:
        fits["repair_vs_loss"] = rep
    return fits


def sweep_report(cells: list[dict],
                 thresholds: dict[str, float] | None = None) -> dict:
    """Cells + fits + anomalies, JSON-safe -- the ``health sweep``
    payload the CLI prints and the HTML dashboard renders."""
    fits = sweep_fits(cells)
    anomalies = flag_anomalies(cells, thresholds)
    return {
        "cells": cells,
        "fits": {name: fit.to_dict() for name, fit in fits.items()},
        "anomalies": [a.to_dict() for a in anomalies],
    }
