"""Columnar (NumPy) point-in-polygon containment.

The paper's most frequent query shape is fixed: *MOFT samples, at
instants matching a temporal constraint, whose position lies in one of a
set of polygons*.  That shape vectorizes: point-in-polygon is a batched
crossing-number test over the ``x, y`` columns.  The region lowering
(:func:`repro.query.region._lower`), the through scan's sample prefilter
and the pre-aggregation store's sample fold all read
:func:`points_inside`; ``benchmarks/bench_vectorized.py`` times the
lowered region against the solver.

Boundary semantics: the batched crossing-number test classifies points
*strictly* inside in bulk, then re-checks the few undecided points near
the boundary with the exact scalar predicate, preserving the closed-region
semantics (boundary points belong to the region).

Decided cells: :func:`points_inside` first reads each point's label off
the pass's grid of decided cells — a cell every point of which has the
same answer against every polygon, proved once when the grid is built
(the argument is :class:`~repro.geometry.kernels.PolygonPass`'s) — and
sends only the points of undecided cells through the broad phase and
the batched test.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.geometry.index import candidate_pairs
from repro.geometry.kernels import (
    MIXED,
    EdgeTable,
    PolygonPass,
    _chunks,
    _min_dist2_to_edges,
    _one,
    _ring_parity,
)
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.mo import moft as moft_module


def pairs_contain(
    edges: EdgeTable, pos: np.ndarray, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """Vectorized closed containment of point ``i`` in polygon ``pos[i]``.

    Crossing-number over all rings (even-odd, so holes work), with an
    exact scalar re-check for points within a small band of the boundary.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    inside = np.zeros(xs.shape, dtype=bool)
    near_boundary = np.zeros(xs.shape, dtype=bool)
    # (Two passes of about ten (row, edge) arrays each: a larger chunk
    # than the clip's peaks no higher.)
    for lo, hi in _chunks(edges, pos, scale=4):
        part, x, y = pos[lo:hi], xs[lo:hi], ys[lo:hi]
        parity, shell = _ring_parity(edges, part, x, y)
        inside[lo:hi] = np.add.reduceat(parity, shell) & 1
        # Boundary band: re-check points close to any edge exactly (the
        # bulk test treats the boundary inconsistently).
        tolerance = edges.tolerance[part]
        near_boundary[lo:hi] = (
            _min_dist2_to_edges(edges, part, x, y) <= tolerance * tolerance
        )
    for index in np.flatnonzero(near_boundary):
        inside[index] = edges.polygons[pos[index]].contains_point(
            Point(float(xs[index]), float(ys[index]))
        )
    return inside


def polygon_contains_batch(
    polygon: Polygon, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """Vectorized closed containment for many points: :func:`pairs_contain`
    on the polygon's cached :func:`~repro.geometry.kernels
    .polygon_edge_arrays`."""
    return pairs_contain(*_one(polygon, len(xs)), xs, ys)


def points_inside(
    polygons: PolygonPass, xs: np.ndarray, ys: np.ndarray, obs=None
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """``(position, point)`` of the points inside a polygon of the pass,
    in chunks of at most a segment batch's worth of points.

    Each point's decided-cell label (:meth:`PolygonPass.labels_for`; see
    :class:`~repro.geometry.kernels.PolygonPass` for why a label is the
    answer :func:`pairs_contain` would give) is looked up with one
    gather per chunk.  The points of undecided cells are gathered across
    chunks and go through the broad phase and one containment call on
    its pairs per batch's worth, once that much has gathered and at the
    end: none, no call.  ``cell_decided_points`` counts into ``obs`` the
    points a label answered.  Without a label grid every point takes
    the broad phase, chunk by chunk.
    """
    step = moft_module.SEGMENT_BATCH_ROWS
    labels = polygons.labels_for(xs.shape[0])
    mixed: List[np.ndarray] = []
    size = 0
    for lo in range(0, xs.shape[0], step):
        x, y = xs[lo:lo + step], ys[lo:lo + step]
        if labels is None:
            pos, at = _contained(polygons, x, y)
            yield pos, at + lo
            continue
        label = labels.of(x, y)
        undecided = np.flatnonzero(label == MIXED)
        inside = np.flatnonzero(label >= 0)
        if obs is not None:
            obs.incr("cell_decided_points", x.shape[0] - undecided.size)
        yield label[inside].astype(np.intp), inside + lo
        mixed.append(undecided + lo)
        size += undecided.size
        if size >= step or lo + step >= xs.shape[0]:
            rows = np.concatenate(mixed)
            mixed, size = [], 0
            for part in range(0, rows.size, step):
                some = rows[part:part + step]
                pos, at = _contained(polygons, xs[some], ys[some])
                yield pos, some[at]


def _contained(
    polygons: PolygonPass, x: np.ndarray, y: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The undecided path: one broad phase and one containment call on
    its pairs."""
    pos, at = candidate_pairs(polygons.grid, x, y, x, y)
    inside = pairs_contain(polygons.edges, pos, x[at], y[at])
    return pos[inside], at[inside]
