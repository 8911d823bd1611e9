"""Plain-text rendering of tables and series: the one table renderer
behind every report the CLI prints."""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["format_table", "format_series"]

#: A rendered cell that reads as a number: a digit after an optional sign
#: or decimal point.
_NUMERIC = re.compile(r"[-+]?\.?\d")


def _fmt(v) -> str:
    if v is None:
        return "--"
    if isinstance(v, float):
        if not np.isfinite(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.4g}"
    return str(v)


Row = Mapping[str, object]


def format_table(
    rows: Mapping[str, Row] | Iterable[Tuple[str, Row]],
    title: Optional[str] = None,
    label: str = "policy",
) -> str:
    """Render ``{row_label: {column: value}}`` as an aligned ASCII table.

    ``rows`` may also be ``(row_label, cells)`` pairs, for labels that
    repeat; ``label`` heads the row-label column.  Values render through
    :func:`_fmt`, so a caller that wants its own precision or unit passes
    the cell as a string.  A column holding a number, or a string that
    starts like one (``1.2ms``, ``+5.0%``, ``3->4``), is right-aligned.
    """
    items = list(rows.items()) if isinstance(rows, Mapping) else list(rows)
    if not items:
        return "(empty table)"
    columns: list[str] = []
    for _, row in items:
        for col in row:
            if col not in columns:
                columns.append(col)
    header = [label] + columns
    body = [
        [str(name)] + [_fmt(row.get(col)) for col in columns] for name, row in items
    ]
    widths = [max(len(r[i]) for r in [header, *body]) for i in range(len(header))]
    right = [any(_NUMERIC.match(r[i]) for r in body) for i in range(len(header))]

    def line(cells: Sequence[str]) -> str:
        return "  ".join(
            c.rjust(w) if r else c.ljust(w) for c, w, r in zip(cells, widths, right)
        ).rstrip()

    lines = [title] if title else []
    lines.append(line(header))
    lines.append("  ".join("-" * w for w in widths).rstrip())
    lines.extend(line(r) for r in body)
    return "\n".join(lines)


def format_series(
    series: Mapping[str, Sequence[tuple]],
    x_label: str,
    y_label: str,
    title: Optional[str] = None,
    max_points: int = 12,
) -> str:
    """Render named (x, y) series as a compact aligned listing.

    Long series are subsampled to ``max_points`` evenly spaced points —
    enough to read off the *shape* (who wins, where crossovers are).
    """
    lines = []
    if title:
        lines.append(title)
    lines.append(f"  [{x_label} -> {y_label}]")
    for name, pts in series.items():
        pts = list(pts)
        if len(pts) > max_points:
            idx = np.linspace(0, len(pts) - 1, max_points).astype(int)
            pts = [pts[i] for i in idx]
        body = "  ".join(f"({_fmt(float(x))}, {_fmt(float(y))})" for x, y in pts)
        lines.append(f"  {name:10s} {body}")
    return "\n".join(lines)
