"""Plain-text table rendering for experiment and CLI output."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]],
                 align: Optional[str] = None) -> str:
    """Fixed-width table with a header rule.

    ``align`` holds one ``"l"`` or ``"r"`` per column; the default
    left-aligns the first column and right-aligns the rest (a label, then
    numbers).  A left-aligned last column is not padded, so its short
    cells leave no trailing blanks.
    """
    if align is None:
        align = "l" + "r" * (len(headers) - 1)
    materialised: List[List[str]] = []
    for row in rows:
        materialised.append([_cell(value) for value in row])
    widths = [len(h) for h in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render(cells: Sequence[str]) -> str:
        line = "  ".join(cell.ljust(width) if side == "l"
                         else cell.rjust(width)
                         for cell, width, side in zip(cells, widths, align))
        return line.rstrip(" ") if align[-1] == "l" else line

    lines = [render(list(headers))]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(render(row) for row in materialised)
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
