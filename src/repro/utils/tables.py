"""Plain-text and Markdown table rendering for experiment reports.

The benchmark harness prints the rows/series of the experiment report
(``python -m repro.experiments.report``);
these helpers keep that formatting in one place so every experiment report
looks the same.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any


def _stringify(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Render an aligned plain-text table."""
    string_rows = [[_stringify(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in string_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match header length")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header_line = "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in string_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_markdown_table(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Render a GitHub-flavoured Markdown table."""
    lines = ["| " + " | ".join(headers) + " |", "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match header length")
        lines.append("| " + " | ".join(_stringify(cell) for cell in row) + " |")
    return "\n".join(lines)


def format_series(name: str, xs: Sequence[Any], ys: Sequence[Any]) -> str:
    """Render an (x, y) series as aligned columns, for figure-style outputs."""
    if len(xs) != len(ys):
        raise ValueError("series x and y lengths differ")
    return format_table(["x", name], list(zip(xs, ys)))
