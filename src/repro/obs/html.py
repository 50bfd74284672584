"""Self-contained HTML run report.

One file, no external assets, no JavaScript frameworks, no CDN: every
byte of the report -- styling, inline SVG sparklines of the gauge
series, the metrics tables, and the causal chains of the worst
recovery episodes -- is generated here from the run's observability
objects.  The output opens in any browser (including ``file://`` from
a CI artifact download) and diffs cleanly in version control because
the generation order is deterministic.
"""

from __future__ import annotations

import html as _html
from typing import Optional

__all__ = ["render_report", "write_report", "sparkline_svg",
           "render_sweep_report"]

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 70em; color: #1a2733; }
h1 { border-bottom: 2px solid #2a6592; padding-bottom: .2em; }
h2 { color: #2a6592; margin-top: 1.6em; }
table { border-collapse: collapse; margin: .8em 0; font-size: .9em; }
th, td { border: 1px solid #c6d3dd; padding: .25em .6em;
         text-align: right; }
th { background: #eef3f7; }
td:first-child, th:first-child { text-align: left;
                                 font-family: monospace; }
svg.spark { vertical-align: middle; }
pre.chain { background: #f6f8fa; border: 1px solid #dde4ea;
            border-radius: 4px; padding: .7em; font-size: .85em;
            overflow-x: auto; }
p.meta { color: #5a6b7a; font-size: .85em; }
.stall { border-left: 4px solid #c0392b; padding-left: .8em; }
"""


def sparkline_svg(t_us: list, values: list, *, width: int = 220,
                  height: int = 36, color: str = "#2a6592") -> str:
    """An inline SVG polyline sparkline of one gauge series."""
    if len(values) < 2:
        return "<span>(not enough samples)</span>"
    t0, t1 = t_us[0], t_us[-1]
    vmin, vmax = min(values), max(values)
    tspan = (t1 - t0) or 1
    vspan = (vmax - vmin) or 1.0
    pts = []
    for t, v in zip(t_us, values):
        x = 2 + (width - 4) * (t - t0) / tspan
        y = 2 + (height - 4) * (1.0 - (v - vmin) / vspan)
        pts.append(f"{x:.1f},{y:.1f}")
    return (f'<svg class="spark" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}" role="img">'
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{" ".join(pts)}"/></svg>')


def _esc(value) -> str:
    return _html.escape(str(value))


def _table(headers: list, rows: list) -> list[str]:
    out = ["<table>", "<tr>" + "".join(f"<th>{_esc(h)}</th>"
                                       for h in headers) + "</tr>"]
    for row in rows:
        out.append("<tr>" + "".join(f"<td>{_esc(c)}</td>"
                                    for c in row) + "</tr>")
    out.append("</table>")
    return out


def render_report(obs, *, title: str = "H-RMC run report",
                  diagnoser=None, worst_k: int = 3,
                  extra_meta: Optional[dict] = None,
                  extra_tables: tuple = ()) -> str:
    """Build the full HTML document for one observed run.

    ``obs`` is the run's :class:`~repro.obs.observer.Observability`;
    ``diagnoser`` (a :class:`~repro.obs.diag.Diagnoser`, optional)
    contributes the worst-recovery causal chains and any stall report;
    ``extra_tables`` (e.g. :func:`repro.obs.health.summary_tables`)
    follow the observer's own tables.
    """
    out = ["<!DOCTYPE html>", '<html lang="en"><head>',
           '<meta charset="utf-8">',
           f"<title>{_esc(title)}</title>",
           f"<style>{_STYLE}</style>", "</head><body>",
           f"<h1>{_esc(title)}</h1>"]

    meta_bits = []
    if obs.finalized_at_us is not None:
        meta_bits.append(f"simulated end t={obs.finalized_at_us} us")
    meta_bits.append(f"{obs.registry.scrapes} scrapes")
    for key, value in (extra_meta or {}).items():
        meta_bits.append(f"{_esc(key)}={_esc(value)}")
    out.append(f'<p class="meta">{" · ".join(meta_bits)}</p>')

    # -- metrics tables (the PR-2 summary layer, verbatim) -------------
    for table_title, headers, rows in [*obs.summary_tables(),
                                       *extra_tables]:
        out.append(f"<h2>{_esc(table_title)}</h2>")
        out.extend(_table(headers, rows))

    # -- gauge sparklines ----------------------------------------------
    spark_rows = []
    for name, series in obs.registry.series.items():
        if len(series) < 2:
            continue
        spark_rows.append(
            f"<tr><td>{_esc(name)}</td>"
            f"<td>{sparkline_svg(series.t_us, series.values)}</td>"
            f"<td>{series.values[-1]:.2f}{_esc(series.unit)}</td></tr>")
    if spark_rows:
        out.append("<h2>gauge series</h2>")
        out.append("<table><tr><th>series</th><th>sparkline</th>"
                   "<th>last</th></tr>")
        out.extend(spark_rows)
        out.append("</table>")

    # -- flamegraph (repro.obs.perf) -----------------------------------
    # the tax table and alloc tables already arrived via
    # obs.summary_tables(); the flamegraph needs its own inline SVG
    perf = getattr(obs, "perf", None)
    if perf is not None:
        svg = perf.flame_svg()
        if svg:
            sampler = perf.sampler
            out.append("<h2>flamegraph (deterministic event-count "
                       "sampling)</h2>")
            out.append(f'<p class="meta">{sampler.samples} sampled '
                       f"callbacks (every {sampler.sample_every}th "
                       f"event) · {len(sampler.stacks)} distinct "
                       "stacks · width = self-wall share</p>")
            out.append(svg)

    # -- causal diagnosis ----------------------------------------------
    if diagnoser is not None:
        worst = diagnoser.explain_worst(worst_k)
        if worst:
            out.append(f"<h2>slowest {len(worst)} recovery episodes "
                       "(causal chains)</h2>")
            for span, why in worst:
                out.append(f"<h3>{_esc(span.name)} @ {_esc(span.host)} "
                           f"&mdash; {span.dur_us} us</h3>")
                out.append(f'<pre class="chain">{_esc(why.render())}</pre>')
        stall = diagnoser.why_stalled()
        if stall is not None:
            out.append('<h2 class="stall">stall detected</h2>')
            out.append(f'<pre class="chain stall">'
                       f'{_esc(stall.render())}</pre>')
        stats = diagnoser.lineage.stats()
        out.append(f'<p class="meta">causal DAG: {stats["nodes"]} nodes '
                   f'({stats["pruned"]} pruned), '
                   f'{stats["drops_indexed"]} indexed drops</p>')

    out.append("</body></html>")
    return "\n".join(out)


def write_report(path: str, obs, **kwargs) -> str:
    """Render and write the report; returns ``path``."""
    with open(path, "w") as fh:
        fh.write(render_report(obs, **kwargs))
        fh.write("\n")
    return path


# -- health-sweep dashboard ---------------------------------------------

#: cell columns in display order; absent keys are skipped per sweep
_SWEEP_COLUMNS = (
    "label", "group_size", "loss_rate", "throughput_mbps",
    "effectiveness", "naks_sent", "suppressed", "feedback_at_sender",
    "implosion_index", "redundant_ratio", "retrans_bytes",
    "mean_lag_us", "worst_lag_us", "unresolved",
)


def render_sweep_report(report: dict, *,
                        title: str = "H-RMC health sweep") -> str:
    """Self-contained HTML dashboard for one ``health sweep``.

    ``report`` is :func:`repro.stats.scaling.sweep_report`: per-cell
    health tables, fitted scaling laws with sparklines of the metric
    across the swept axis, and the anomaly flags.  Same constraints
    as :func:`render_report` -- one file, zero external assets,
    deterministic generation order.
    """
    cells = report.get("cells", [])
    fits = report.get("fits", {})
    anomalies = report.get("anomalies", [])

    out = ["<!DOCTYPE html>", '<html lang="en"><head>',
           '<meta charset="utf-8">',
           f"<title>{_esc(title)}</title>",
           f"<style>{_STYLE}</style>", "</head><body>",
           f"<h1>{_esc(title)}</h1>",
           f'<p class="meta">{len(cells)} grid cells · '
           f'{len(fits)} scaling fits · '
           f'{len(anomalies)} anomaly flags</p>']

    # -- per-cell health table -----------------------------------------
    if cells:
        columns = [c for c in _SWEEP_COLUMNS
                   if any(c in cell for cell in cells)]
        rows = [[cell.get(c, "-") for c in columns] for cell in cells]
        out.append("<h2>per-cell protocol health</h2>")
        out.extend(_table(columns, rows))

    # -- scaling fits with sparklines ----------------------------------
    if fits:
        out.append("<h2>scaling-law fits (log-log least squares)</h2>")
        out.append("<table><tr><th>fit</th><th>law</th>"
                   "<th>exponent</th><th>r2</th><th>n</th>"
                   "<th>trend</th></tr>")
        for name in sorted(fits):
            fit = fits[name]
            x_name, y_name = fit.get("x", "x"), fit.get("y", "y")
            points = sorted(
                (cell[x_name], cell[y_name]) for cell in cells
                if isinstance(cell.get(x_name), (int, float))
                and isinstance(cell.get(y_name), (int, float)))
            spark = sparkline_svg([p[0] for p in points],
                                  [p[1] for p in points])
            law = (f"{y_name} ~ {fit.get('coefficient', 0):g} · "
                   f"{x_name}^{fit.get('exponent', 0):g}")
            out.append(
                f"<tr><td>{_esc(name)}</td><td>{_esc(law)}</td>"
                f"<td>{fit.get('exponent', 0):.3f}</td>"
                f"<td>{fit.get('r2', 0):.3f}</td>"
                f"<td>{fit.get('n', 0)}</td><td>{spark}</td></tr>")
        out.append("</table>")

    # -- anomaly flags -------------------------------------------------
    if anomalies:
        out.append('<h2 class="stall">per-cell anomalies '
                   "(vs sweep median)</h2>")
        out.extend(_table(
            ["cell", "metric", "value", "median", "gate", "direction"],
            [[a.get("cell", "?"), a.get("metric", "?"),
              a.get("value", "?"), a.get("median", "?"),
              f"{a.get('threshold', 0):.0%}", a.get("direction", "?")]
             for a in anomalies]))
    else:
        out.append('<p class="meta">no per-cell anomalies: every cell '
                   "within the sweep-median gates</p>")

    out.append("</body></html>")
    return "\n".join(out)
