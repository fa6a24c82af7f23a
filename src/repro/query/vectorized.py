"""Columnar (NumPy) fast path for the common Type-4 query shape.

The logical solver evaluates row by row — correct for arbitrary formulas,
but the paper's most frequent query shape is fixed: *MOFT samples, at
instants matching a temporal constraint, whose position lies in one of a
set of polygons*.  That shape vectorizes: the time filter is a mask over
the ``t`` column and point-in-polygon is a batched crossing-number test
over the ``x, y`` columns.

:func:`samples_in_polygons` returns the same ``(oid, t)`` region the
solver produces for such queries (the equivalence is property-tested);
``benchmarks/bench_vectorized.py`` measures the gap.

Boundary semantics: the batched crossing-number test classifies points
*strictly* inside in bulk, then re-checks the few undecided points near
the boundary with the exact scalar predicate, preserving the closed-region
semantics (boundary points belong to the region).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.geometry.kernels import (
    _min_dist2_to_edges,
    _ring_parity,
    polygon_edge_arrays,
)
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.mo.moft import MOFT


def polygon_contains_batch(
    polygon: Polygon, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """Vectorized closed containment for many points.

    Crossing-number over all rings (even-odd, so holes work), with an
    exact scalar re-check for points within a small band of the boundary.
    The edge vectors come from the polygon's cached
    :func:`~repro.geometry.kernels.polygon_edge_arrays`, so repeated
    batches against the same polygon skip the ring flattening.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    edges = polygon_edge_arrays(polygon)
    offsets = edges.ring_offsets
    inside = np.zeros(xs.shape, dtype=bool)
    for ring_index in range(len(offsets) - 1):
        r0, r1 = int(offsets[ring_index]), int(offsets[ring_index + 1])
        inside ^= _ring_parity(
            xs, ys,
            edges.ax[r0:r1], edges.ay[r0:r1],
            edges.bx[r0:r1], edges.by[r0:r1],
        )
    # Boundary band: re-check points close to any edge exactly (the bulk
    # test treats the boundary inconsistently).
    near_boundary = (
        _min_dist2_to_edges(xs, ys, edges)
        <= edges.tolerance * edges.tolerance
    )
    for index in np.flatnonzero(near_boundary):
        inside[index] = polygon.contains_point(
            Point(float(xs[index]), float(ys[index]))
        )
    return inside


def points_in_polygons(
    xs: np.ndarray, ys: np.ndarray, polygons: Sequence[Polygon]
) -> np.ndarray:
    """Which points lie in *any* of the (closed) polygons, as a mask."""
    hit = np.zeros(xs.shape, dtype=bool)
    for polygon in polygons:
        # Cheap bbox prefilter per polygon, over the still-undecided.
        box = polygon.bbox
        idx = np.flatnonzero(
            ~hit
            & (xs >= box.min_x)
            & (xs <= box.max_x)
            & (ys >= box.min_y)
            & (ys <= box.max_y)
        )
        if idx.size:
            hit[idx] = polygon_contains_batch(polygon, xs[idx], ys[idx])
    return hit


def samples_in_polygons(
    moft: MOFT,
    polygons: Sequence[Polygon],
    instants: Iterable[float] | None = None,
) -> Set[Tuple[Hashable, float]]:
    """The Type-4 region ``{(oid, t)}`` evaluated columnarly.

    Parameters
    ----------
    moft:
        The moving-object fact table.
    polygons:
        The qualifying regions (e.g. low-income neighborhoods); a sample
        matches when inside *any* of them.
    instants:
        Allowed instants (None = all instants).
    """
    if len(moft) == 0 or not polygons:
        return set()
    t, x, y = moft.as_arrays()
    if instants is None:
        mask = np.ones(t.shape, dtype=bool)
    else:
        allowed = np.array(sorted({float(i) for i in instants}), dtype=float)
        if allowed.size == 0:
            return set()
        mask = np.isin(t, allowed)
    if not mask.any():
        return set()
    rows = np.flatnonzero(mask)
    # Recover (oid, t) for the hits by indexing the oid column directly —
    # no per-row tuple materialization of the whole table.
    oid_column = moft.oid_column()
    hit_rows = rows[points_in_polygons(x[rows], y[rows], polygons)]
    return {
        (oid_column[row], float(t[row])) for row in hit_rows
    }
