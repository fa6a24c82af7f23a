"""Trajectory–region operations.

These implement the spatial semantics behind the paper's query types:

* *sample semantics* (Type 4): an object is where it was sampled —
  :func:`sample_instants_inside`;
* *trajectory semantics* (Type 7): linear interpolation may reveal that an
  object passed through a region between samples (the paper's object O6) —
  :func:`passes_through`, :func:`intervals_inside`, :func:`time_inside`;
* *proximity* (queries 6 and 7): time spent within a radius of a point,
  solved exactly per interpolation piece via the quadratic
  ``|p(t) - c|² = r²`` — :func:`intervals_within_distance`.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.errors import TrajectoryError
from repro.geometry import kernels
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.mo.trajectory import LinearInterpolationTrajectory, TrajectorySample

TimeInterval = Tuple[float, float]


def _merge_intervals(intervals: List[TimeInterval]) -> List[TimeInterval]:
    """Merge overlapping/adjacent time intervals."""
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi + 1e-12:
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    return merged


def sample_instants_inside(
    sample: TrajectorySample, polygon: Polygon
) -> List[float]:
    """Instants whose *sampled* position lies in the (closed) polygon.

    This is the Type-4 semantics: "we are assuming that cars are only in
    the regions where they were sampled."
    """
    return [
        t for t, x, y in sample if polygon.contains_point(Point(x, y))
    ]


def intervals_inside(
    trajectory: LinearInterpolationTrajectory, polygon: Polygon
) -> List[TimeInterval]:
    """Maximal time intervals the interpolated object spends in the polygon.

    Each interpolation piece is clipped against the polygon; clip
    parameters convert affinely to times and adjacent intervals are merged
    across pieces.
    """
    t0s, t1s, x0, y0, x1, y1 = trajectory.sample.piece_arrays()
    clips = kernels.clip_segments_batch(polygon, x0, y0, x1, y1)
    intervals: List[TimeInterval] = []
    for t0, t1, piece_clips in zip(t0s.tolist(), t1s.tolist(), clips):
        for s0, s1 in piece_clips:
            intervals.append((t0 + s0 * (t1 - t0), t0 + s1 * (t1 - t0)))
    return _merge_intervals(intervals)


def time_inside(
    trajectory: LinearInterpolationTrajectory, polygon: Polygon
) -> float:
    """Total time the interpolated object spends inside the polygon."""
    return sum(hi - lo for lo, hi in intervals_inside(trajectory, polygon))


def passes_through(
    trajectory: LinearInterpolationTrajectory, polygon: Polygon
) -> bool:
    """True when the interpolated trajectory touches the polygon at all.

    Captures the paper's O6: "passes through a low-income region, but was
    not sampled inside it."
    """
    _, _, x0, y0, x1, y1 = trajectory.sample.piece_arrays()
    return bool(kernels.segments_intersect(polygon, x0, y0, x1, y1).any())


def entry_exit_times(
    trajectory: LinearInterpolationTrajectory, polygon: Polygon
) -> List[Tuple[float, float]]:
    """Alias of :func:`intervals_inside`, named for queries about crossings."""
    return intervals_inside(trajectory, polygon)


def first_entry_time(
    trajectory: LinearInterpolationTrajectory, polygon: Polygon
) -> float:
    """First instant the interpolated object is inside the polygon.

    Raises :class:`TrajectoryError` when it never is.
    """
    intervals = intervals_inside(trajectory, polygon)
    if not intervals:
        raise TrajectoryError("trajectory never enters the polygon")
    return intervals[0][0]


def stays_within(
    trajectory: LinearInterpolationTrajectory, polygon: Polygon
) -> bool:
    """True when the whole interpolated trajectory lies inside the polygon.

    Query 3's "passing completely through" condition: no part of the
    trajectory outside the region.
    """
    lo, hi = trajectory.time_domain
    intervals = intervals_inside(trajectory, polygon)
    if len(intervals) != 1:
        return False
    (a, b) = intervals[0]
    return math.isclose(a, lo, abs_tol=1e-12) and math.isclose(b, hi, abs_tol=1e-12)


def intervals_within_distance(
    trajectory: LinearInterpolationTrajectory,
    center: Point,
    radius: float,
) -> List[TimeInterval]:
    """Time intervals with ``|position(t) - center| <= radius``.

    Solved exactly on each piece: with ``p(t)`` affine in ``t``,
    ``|p(t) - c|²`` is a quadratic in ``t`` and the sub-level set is an
    interval (possibly empty) intersected with the piece.
    """
    if radius < 0:
        raise TrajectoryError("radius must be non-negative")
    cx, cy = float(center.x), float(center.y)
    intervals: List[TimeInterval] = []
    for t0, t1, segment in trajectory.pieces():
        dt = t1 - t0
        ax = float(segment.start.x) - cx
        ay = float(segment.start.y) - cy
        vx = (float(segment.end.x) - float(segment.start.x)) / dt
        vy = (float(segment.end.y) - float(segment.start.y)) / dt
        # |a + v (t - t0)|^2 <= r^2  with tau = t - t0 in [0, dt].
        qa = vx * vx + vy * vy
        qb = 2 * (ax * vx + ay * vy)
        qc = ax * ax + ay * ay - radius * radius
        if qa == 0:
            # Stationary piece: inside iff start point is within the disk.
            if qc <= 0:
                intervals.append((t0, t1))
            continue
        disc = qb * qb - 4 * qa * qc
        if disc < 0:
            continue
        sqrt_disc = math.sqrt(disc)
        tau_lo = (-qb - sqrt_disc) / (2 * qa)
        tau_hi = (-qb + sqrt_disc) / (2 * qa)
        lo = max(0.0, tau_lo)
        hi = min(dt, tau_hi)
        if lo <= hi:
            intervals.append((t0 + lo, t0 + hi))
    return _merge_intervals(intervals)


def time_within_distance(
    trajectory: LinearInterpolationTrajectory,
    center: Point,
    radius: float,
) -> float:
    """Total time spent within ``radius`` of ``center``."""
    return sum(
        hi - lo
        for lo, hi in intervals_within_distance(trajectory, center, radius)
    )


def ever_within_distance(
    trajectory: LinearInterpolationTrajectory,
    center: Point,
    radius: float,
) -> bool:
    """True when the trajectory ever comes within ``radius`` of ``center``."""
    return bool(intervals_within_distance(trajectory, center, radius))


def distance_at(
    a: LinearInterpolationTrajectory,
    b: LinearInterpolationTrajectory,
    t: float,
) -> float:
    """Distance between two interpolated objects at a common instant."""
    return a.position(t).distance_to(b.position(t))


def minimum_distance(
    a: LinearInterpolationTrajectory,
    b: LinearInterpolationTrajectory,
) -> Tuple[float, float]:
    """Return ``(min distance, instant)`` over the common time domain.

    The relative motion is piecewise affine, so per common sub-piece the
    squared distance is quadratic and minimized in closed form.
    """
    lo = max(a.time_domain[0], b.time_domain[0])
    hi = min(a.time_domain[1], b.time_domain[1])
    if lo > hi:
        raise TrajectoryError("trajectories share no time instants")
    cuts = sorted(
        {lo, hi}
        | {t for t in a.sample.times if lo <= t <= hi}
        | {t for t in b.sample.times if lo <= t <= hi}
    )
    best = (math.inf, lo)
    for c0, c1 in zip(cuts, cuts[1:]):
        pa0, pa1 = a.position(c0), a.position(c1)
        pb0, pb1 = b.position(c0), b.position(c1)
        dx0 = float(pa0.x) - float(pb0.x)
        dy0 = float(pa0.y) - float(pb0.y)
        dx1 = float(pa1.x) - float(pb1.x)
        dy1 = float(pa1.y) - float(pb1.y)
        dt = c1 - c0
        vx = (dx1 - dx0) / dt
        vy = (dy1 - dy0) / dt
        qa = vx * vx + vy * vy
        qb = 2 * (dx0 * vx + dy0 * vy)
        candidates = [0.0, dt]
        if qa > 0:
            tau = -qb / (2 * qa)
            if 0 < tau < dt:
                candidates.append(tau)
        for tau in candidates:
            gx = dx0 + vx * tau
            gy = dy0 + vy * tau
            dist = math.hypot(gx, gy)
            if dist < best[0]:
                best = (dist, c0 + tau)
    if cuts[0] == cuts[-1]:
        # Single shared instant.
        dist = distance_at(a, b, lo)
        if dist < best[0]:
            best = (dist, lo)
    return best
