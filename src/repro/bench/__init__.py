"""Benchmark harness utilities shared by the ``benchmarks/`` suite."""

from repro.bench.harness import (
    SCALES,
    Series,
    WorldScale,
    build_world,
    context_for,
    large_moft,
    timed,
)
from repro.bench.reporting import (
    format_table,
    print_series,
    print_table,
)

__all__ = [
    "SCALES",
    "Series",
    "WorldScale",
    "build_world",
    "context_for",
    "large_moft",
    "timed",
    "format_table",
    "print_series",
    "print_table",
]
