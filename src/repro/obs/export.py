"""Exporters for the observability layer.

Three formats, all deterministic for a fixed seed:

* **JSONL** -- one record per time-series sample, for offline
  plotting and comparing across runs,
* **text summary** -- aligned tables appended to harness reports,
* **Chrome Trace Event Format JSON** -- protocol-phase and recovery
  spans as duration events, metric series as counter tracks and
  notable packets as instants; the file loads directly in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.

Chrome trace timestamps are microseconds, which is exactly the
simulator's clock, so simulated time maps 1:1 onto the trace viewer's
timeline.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry
from repro.stats.report import format_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.observer import Observability

__all__ = ["write_series_jsonl", "chrome_trace", "write_chrome_trace",
           "summary_text"]


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


# -- Chrome Trace Event Format (Perfetto) -------------------------------

def chrome_trace(obs: "Observability") -> dict:
    """Build the Chrome Trace Event Format document for a run."""
    events: list[dict] = []
    spans = obs.spans
    hosts = sorted({s.host for s in spans.spans} |
                   {m.host for m in spans.marks}) if spans else []
    tids = {host: i + 1 for i, host in enumerate(hosts)}

    events.append({"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
                   "args": {"name": "h-rmc simulation"}})
    events.append({"ph": "M", "pid": 0, "tid": 0, "name": "thread_name",
                   "args": {"name": "metrics"}})
    for host, tid in tids.items():
        events.append({"ph": "M", "pid": 0, "tid": tid,
                       "name": "thread_name", "args": {"name": host}})

    if spans is not None:
        for span in spans.spans:
            if span.end_us is None:
                continue
            events.append({"ph": "X", "pid": 0,
                           "tid": tids.get(span.host, 0),
                           "name": span.name, "cat": span.cat,
                           "ts": span.start_us,
                           "dur": max(span.dur_us, 1)})
        for mark in spans.marks:
            events.append({"ph": "i", "s": "t", "pid": 0,
                           "tid": tids.get(mark.host, 0),
                           "name": mark.name, "cat": "packet",
                           "ts": mark.t_us})

    for name, series in obs.registry.series.items():
        short = name.rsplit(".", 1)[-1]
        for t_us, value in series.samples():
            events.append({"ph": "C", "pid": 0, "name": name,
                           "ts": t_us, "args": {short: round(value, 4)}})

    events.sort(key=lambda e: (e.get("ts", -1), e.get("pid", 0),
                               e.get("tid", 0), e["name"]))
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"source": "repro.obs",
                          "clock": "simulated microseconds"}}


def write_chrome_trace(obs: "Observability", path: str) -> int:
    """Write the Perfetto-loadable trace; returns the event count."""
    doc = chrome_trace(obs)
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return len(doc["traceEvents"])


# -- text summary -------------------------------------------------------

def summary_text(obs: "Observability") -> str:
    """Aligned text tables of the run's observability data, suitable
    for appending to a harness report or CI log."""
    parts: list[str] = []
    rows = obs.registry.summary_rows()
    if rows:
        parts.append(format_table(
            "metric series (simulated-time scrape)",
            ["series", "samples", "min", "mean", "max", "last"], rows))

    if obs.spans is not None:
        latency = obs.spans.latency_table()
        if latency is not None:
            parts.append(format_table(*latency))
        phase_rows = [[s.host, s.name, s.start_us, s.end_us,
                       round(s.dur_us / 1000, 1)]
                      for s in obs.spans.spans if s.cat == "phase"]
        if phase_rows:
            parts.append(format_table(
                "protocol phases",
                ["host", "phase", "start_us", "end_us", "dur_ms"],
                phase_rows[:40]))

    if obs.profiler is not None and obs.profiler.events:
        parts.append(format_table(
            "profiler: hottest callback sites",
            ["site", "events", "sim_ms", "wall_ms", "wall%"],
            obs.profiler.top(10)))
        parts.append(f"engine: {obs.profiler.events} events, "
                     f"{obs.profiler.events_per_sec():,.0f} events/s "
                     f"(wall) inside callbacks")

    return "\n\n".join(parts) if parts else "(no observability data)"
