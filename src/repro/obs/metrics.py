"""Deterministic metrics primitives: gauges, histograms and time
series.

Everything here is pure bookkeeping driven by *simulated* time -- no
wall clocks, no allocation-order iteration, no randomness -- so two
runs of the same seeded scenario produce bit-identical metric dumps.
Gauges are callables sampled by a scrape (see
:class:`~repro.obs.observer.Observability`); a gauge returning ``None``
skips that sample (e.g. a sender role that has not been created yet).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.sim.engine import US_PER_SEC

__all__ = ["Histogram", "TimeSeries", "MetricsRegistry"]


class Histogram:
    """A fixed-bucket histogram (cumulative-style bucket bounds).

    ``bounds`` are the inclusive upper edges of the first
    ``len(bounds)`` buckets; one overflow bucket catches everything
    beyond the last bound.  Fixed buckets keep observation O(log n) and
    make exports trivially mergeable/diffable across runs.
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
        """(upper-edge label, count) per non-empty-prefix bucket."""
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


class TimeSeries:
    """A (t_us, value) series filled by scrapes or manual appends."""

    __slots__ = ("name", "unit", "t_us", "values")

    def __init__(self, name: str, unit: str = ""):
        self.name = name
        self.unit = unit
        self.t_us: list[int] = []
        self.values: list[float] = []

    def append(self, t_us: int, value: float) -> None:
        self.t_us.append(int(t_us))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.t_us)

    @property
    def last(self) -> Optional[float]:
        return self.values[-1] if self.values else None

    def samples(self):
        return zip(self.t_us, self.values)


@dataclass
class _Gauge:
    name: str
    fn: Callable[[], Optional[float]]
    rate: bool            # sample (delta value)/(delta t) instead of value
    scale: float
    prev_value: Optional[float] = None
    prev_t_us: Optional[int] = None


class MetricsRegistry:
    """Namespace of gauges and their series.

    Registration order is preserved everywhere (exports iterate dicts,
    which are insertion-ordered), keeping dumps deterministic.
    """

    def __init__(self) -> None:
        self.series: dict[str, TimeSeries] = {}
        self._gauges: list[_Gauge] = []
        self.scrapes = 0

    # -- registration ---------------------------------------------------

    def timeseries(self, name: str, unit: str = "") -> TimeSeries:
        if name not in self.series:
            self.series[name] = TimeSeries(name, unit)
        return self.series[name]

    def gauge(self, name: str, fn: Callable[[], Optional[float]], *,
              unit: str = "", scale: float = 1.0) -> None:
        """Sample ``fn()`` at every scrape into the series ``name``."""
        self.timeseries(name, unit)
        self._gauges.append(_Gauge(name, fn, rate=False, scale=scale))

    def rate_gauge(self, name: str, fn: Callable[[], Optional[float]], *,
                   unit: str = "/s", scale: float = 1.0) -> None:
        """Sample the per-second rate of change of ``fn()`` (which must
        be monotone, e.g. a protocol counter) at every scrape."""
        self.timeseries(name, unit)
        self._gauges.append(_Gauge(name, fn, rate=True, scale=scale))

    # -- scraping -------------------------------------------------------

    def scrape(self, now_us: int) -> None:
        """Sample every gauge at simulated time ``now_us``."""
        self.scrapes += 1
        for g in self._gauges:
            value = g.fn()
            if value is None:
                continue
            value = float(value)
            if g.rate:
                if g.prev_t_us is not None and now_us > g.prev_t_us:
                    dt_s = (now_us - g.prev_t_us) / US_PER_SEC
                    rate = (value - g.prev_value) / dt_s
                    self.series[g.name].append(now_us, rate * g.scale)
                g.prev_value = value
                g.prev_t_us = now_us
            else:
                self.series[g.name].append(now_us, value * g.scale)

    # -- views ----------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Most recent sample of every series -- the state attached to
        :class:`InvariantViolation` messages."""
        return {name: series.values[-1]
                for name, series in self.series.items() if series.values}

    def summary_rows(self) -> list[list]:
        """(series, samples, min, mean, max, last) per non-empty series."""
        rows = []
        for name, s in self.series.items():
            if not s.values:
                continue
            rows.append([name, len(s.values),
                         round(min(s.values), 2),
                         round(sum(s.values) / len(s.values), 2),
                         round(max(s.values), 2),
                         round(s.values[-1], 2)])
        return rows
