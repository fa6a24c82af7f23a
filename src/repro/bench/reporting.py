"""Plain-text reporting for benchmark outputs.

Benchmarks print the same rows/series the paper's artifacts contain, so a
reader can diff EXPERIMENTS.md against a fresh run.  Everything renders as
monospace tables on stdout — no plotting dependencies.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.bench.harness import Series


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render rows as a fixed-width table."""
    materialized: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        materialized.append(
            [
                f"{cell:.4g}" if isinstance(cell, float) else str(cell)
                for cell in row
            ]
        )
    widths = [
        max(len(row[i]) for row in materialized)
        for i in range(len(headers))
    ]
    lines = []
    for index, row in enumerate(materialized):
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def print_table(
    title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> None:
    """Print a titled table."""
    print()
    print(f"== {title} ==")
    print(format_table(headers, rows))


def print_series(title: str, series_list: Sequence[Series]) -> None:
    """Print several series side by side, joined on x."""
    xs: List[object] = []
    for series in series_list:
        for x, _ in series.points:
            if x not in xs:
                xs.append(x)
    headers = ["x"] + [s.name for s in series_list]
    rows = []
    for x in xs:
        row: List[object] = [x]
        for series in series_list:
            match = [y for sx, y in series.points if sx == x]
            row.append(match[0] if match else "-")
        rows.append(row)
    print_table(title, headers, rows)
