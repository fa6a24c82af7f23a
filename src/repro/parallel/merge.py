"""Merge functions for per-shard partial results.

Each query family has a merge with the right algebra:

* object-id queries (``matching_objects`` over object shards) —
  :func:`union_ids`: shards hold disjoint object sets, the union is the
  exact serial answer;
* conjunctive geometric queries (one WHERE condition per task) —
  :func:`intersect_ids`: every condition constrains the target ids;
* grouped aggregations (per-shard ``group -> value`` sums) —
  :func:`sum_groups`: group keys are summed pointwise, which is exact
  for distributive aggregates (SUM/COUNT) over disjoint shards;
* plain counts of disjoint shards — :func:`sum_counts`.

These are deliberately tiny, pure functions: the differential oracle in
``tests/parallel`` exists to prove that *executor + merge* reproduces the
serial semantics, and small merges keep that surface auditable.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Set


def union_ids(partials: Iterable[Set[Hashable]]) -> Set[Hashable]:
    """Union per-shard id sets (disjoint-shard object queries)."""
    merged: Set[Hashable] = set()
    for partial in partials:
        merged |= partial
    return merged


def intersect_ids(partials: Iterable[Set[Hashable]]) -> Set[Hashable]:
    """Intersect per-condition id sets (conjunctive geometric queries).

    An empty iterable has no constraining condition; callers handle that
    case themselves (it means "all target elements"), so here it is an
    error to merge nothing.
    """
    merged: "Set[Hashable] | None" = None
    for partial in partials:
        merged = set(partial) if merged is None else merged & partial
        if not merged:
            return set()
    if merged is None:
        raise ValueError("intersect_ids needs at least one partial")
    return merged


def sum_groups(
    partials: Iterable[Dict[Hashable, float]]
) -> Dict[Hashable, float]:
    """Add per-group values pointwise across shards."""
    merged: Dict[Hashable, float] = {}
    for partial in partials:
        for key, value in partial.items():
            merged[key] = merged.get(key, 0.0) + value
    return merged


def sum_counts(partials: Iterable[float]) -> float:
    """Add per-shard counts (exact when shards are disjoint)."""
    return sum(partials)
