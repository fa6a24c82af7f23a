"""Merge functions for per-shard partial results.

Grouped aggregations (per-shard ``group -> value`` sums) merge by
:func:`sum_groups`: group keys are summed pointwise, which is exact for
distributive aggregates (SUM/COUNT) over disjoint shards.

(Object queries merge by encoding the shards' disjoint id lists against
the parent table, :meth:`~repro.parallel.ShardedExecutor
.matching_objects`; store builds by :meth:`~repro.cellstore
.GranuleStore.merge`.)

These are deliberately tiny, pure functions: the differential oracle in
``tests/parallel`` exists to prove that *executor + merge* reproduces the
serial semantics, and small merges keep that surface auditable.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable


def sum_groups(
    partials: Iterable[Dict[Hashable, float]]
) -> Dict[Hashable, float]:
    """Add per-group values pointwise across shards."""
    merged: Dict[Hashable, float] = {}
    for partial in partials:
        for key, value in partial.items():
            merged[key] = merged.get(key, 0.0) + value
    return merged

