"""Plain-text table formatting for experiment output.

The harness prints each reproduced table/figure as an aligned text
table (the same rows/series the paper plots), so results are readable
in CI logs and diffable across runs.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

__all__ = ["format_table", "format_value"]


def format_value(value: Any) -> str:
    if isinstance(value, float):
        if math.isnan(value):   # not measured: a cut-short run's rate
            return "✗"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[Any]]) -> str:
    """Render an aligned text table with a title rule."""
    str_rows = [[format_value(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
    out = [title, "=" * len(title), line(headers), rule]
    out.extend(line(r) for r in str_rows)
    return "\n".join(out)
