"""Report formatting: plain-text tables and scaling fits for the benchmarks.

Every benchmark prints the rows/series the corresponding paper table reports.
The helpers here keep that output uniform (fixed-width text tables, simple
power-law fits of measured counts against 1/eps or n so the *shape* of the
paper's complexity claims can be read off directly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class Table:
    """A simple column-oriented table with a title."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append(values)

    def render(self) -> str:
        return format_table(self.title, self.columns, self.rows)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def format_table(title: str, columns: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Render a fixed-width text table."""
    str_rows = [[_fmt(v) for v in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "+".join("-" * (w + 2) for w in widths)
    lines = [f"== {title} ==", sep]
    lines.append(" | ".join(c.ljust(w) for c, w in zip(columns, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    lines.append(sep)
    return "\n".join(lines)


def records_table(records: Sequence[Dict[str, object]],
                  title: str = "benchmark records",
                  max_counters: int = 4) -> Table:
    """Render ``repro.bench`` runner records as a text table.

    One row per record: scenario, eps, smoke flag, wall-clock, and a
    compact ``name=value`` digest of up to ``max_counters`` counters (the
    full set lives in the JSON emission; the table is the human rendering of
    the same records).
    """
    table = Table(title, ["scenario", "eps", "smoke", "wall_s", "counters"])
    for record in records:
        params = record.get("params", {})
        counters = record.get("counters", {})
        shown = sorted(counters)[:max_counters]
        digest = ", ".join(f"{key}={_fmt(counters[key])}" for key in shown)
        if len(counters) > max_counters:
            digest += ", ..."
        eps = params.get("eps")
        table.add_row(record.get("scenario"), "-" if eps is None else eps,
                      bool(params.get("smoke")), record.get("wall_s"), digest)
    return table


def geometric_fit(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares fit ``y ~ a * x^b`` in log-log space; returns ``(a, b)``.

    Used to report the measured exponent of oracle-call counts against 1/eps:
    the paper claims the exponent drops from ~39-52 (prior frameworks) to ~7
    for the new framework; the benchmarks report the measured ``b``.
    Points with non-positive coordinates are ignored.
    """
    pts = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pts) < 2:
        return (float("nan"), float("nan"))
    lx = [math.log(x) for x, _ in pts]
    ly = [math.log(y) for _, y in pts]
    n = len(pts)
    mean_x = sum(lx) / n
    mean_y = sum(ly) / n
    sxx = sum((x - mean_x) ** 2 for x in lx)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(lx, ly))
    if sxx == 0:
        return (float("nan"), float("nan"))
    b = sxy / sxx
    a = math.exp(mean_y - b * mean_x)
    return (a, b)


def ratio_series(baseline: Sequence[float], ours: Sequence[float]) -> List[float]:
    """Element-wise ``baseline / ours`` (inf where ours is 0)."""
    out = []
    for b, o in zip(baseline, ours):
        out.append(float("inf") if o == 0 else b / o)
    return out
