"""Exporters for the observability layer.

Two formats, both deterministic for a fixed seed:

* **JSONL** -- one record per time-series sample, for offline
  plotting and comparing across runs,
* **text summary** -- aligned tables appended to harness reports.
"""

from __future__ import annotations

import json

from repro.obs.metrics import MetricsRegistry
from repro.stats.report import format_table

__all__ = ["write_series_jsonl", "summary_text"]


def write_series_jsonl(registry: MetricsRegistry, path: str) -> int:
    """Dump every series sample as JSON lines; returns the number of
    records written."""
    n = 0
    with open(path, "w") as fh:
        for name, series in registry.series.items():
            for t_us, value in series.samples():
                fh.write(json.dumps(
                    {"kind": "sample", "series": name, "unit": series.unit,
                     "t_us": t_us, "value": round(value, 6)},
                    separators=(",", ":")))
                fh.write("\n")
                n += 1
    return n


def summary_text(registry: MetricsRegistry) -> str:
    """The run's metric series as an aligned text table, suitable for
    appending to a harness report or CI log."""
    rows = registry.summary_rows()
    if not rows:
        return "(no observability data)"
    return format_table("metric series (simulated-time scrape)",
                        ["series", "samples", "min", "mean", "max", "last"],
                        rows)
