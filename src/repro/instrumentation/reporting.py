"""Report formatting: the fixed-width text tables of the benchmark CLI.

``python -m repro.bench`` renders its records (:func:`records_table`), the
scenario list and the ``compare`` diff with :class:`Table`; the JSON records
are the data, the tables their human rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence


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
