"""Plain-text rendering of experiment results.

Every experiment emits rows of named columns; this module renders them
the way the paper's figures read (one row per workload, one column per
scheme/parameter, a gmean summary row).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence


def format_value(value: object, precision: int = 3) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    columns: Sequence[str],
    rows: Sequence[Mapping[str, object]],
    *,
    title: Optional[str] = None,
    precision: int = 3,
) -> str:
    """Render rows of dicts as an aligned ASCII table."""
    header = list(columns)
    body: List[List[str]] = [
        [format_value(row.get(col, ""), precision) for col in header]
        for row in rows
    ]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(header))))
    return "\n".join(lines)


def render_bars(
    values: Mapping[str, float],
    *,
    title: Optional[str] = None,
    width: int = 48,
    reference: Optional[float] = None,
    precision: int = 2,
) -> str:
    """Horizontal ASCII bar chart — the terminal stand-in for the
    paper's figures.

    ``reference`` draws a marker column (e.g. the baseline's 1.0) so
    speedup charts read like the paper's normalized plots.
    """
    if not values:
        return title or ""
    label_w = max(len(k) for k in values)
    peak = max(max(values.values()), reference or 0.0, 1e-12)
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("-" * len(title))
    ref_col = (
        int(round(reference / peak * width)) if reference is not None else None
    )
    for key, value in values.items():
        filled = int(round(max(0.0, value) / peak * width))
        bar = list("#" * filled + " " * (width - filled))
        if ref_col is not None and 0 <= ref_col < width and bar[ref_col] == " ":
            bar[ref_col] = "|"
        lines.append(
            f"{key.ljust(label_w)}  {''.join(bar)}  "
            f"{format_value(float(value), precision)}"
        )
    return "\n".join(lines)
