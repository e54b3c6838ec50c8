"""Plain-text table rendering shared by the experiment modules."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: Optional[str] = None, float_format: str = "{:.2f}") -> str:
    """Render a fixed-width text table.

    Args:
        headers: column headers.
        rows: row values; floats are formatted with ``float_format``, other
            values with ``str``.
        title: optional title line printed above the table.
        float_format: format spec applied to float cells.
    """
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    rendered_rows: List[List[str]] = [[fmt(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(line([str(h) for h in headers]))
    parts.append(line(["-" * w for w in widths]))
    parts.extend(line(row) for row in rendered_rows)
    return "\n".join(parts)


def format_series(label: str, xs: Sequence[object], ys: Sequence[float],
                  y_format: str = "{:.1f}") -> str:
    """Render one figure series as ``label: x1=y1 x2=y2 ...``."""
    pairs = " ".join(
        f"{x}={y_format.format(y)}" for x, y in zip(xs, ys))
    return f"{label}: {pairs}"
