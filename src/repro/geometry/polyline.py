"""Polylines: streets, highways, rivers — and the spatial projection of a
linearly-interpolated trajectory.

The paper's geometry hierarchy puts ``line`` below ``polyline`` (Figure 2);
here a :class:`Polyline` is the polyline level and its :meth:`segments` are
the ``line`` elements beneath it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import GeometryError
from repro.geometry.point import BoundingBox, Point
from repro.geometry.segment import Segment


@dataclass(frozen=True)
class Polyline:
    """An open chain of two or more vertices joined by straight segments."""

    vertices: Tuple[Point, ...]

    def __init__(self, vertices: Sequence[Point]) -> None:
        pts = tuple(vertices)
        if len(pts) < 2:
            raise GeometryError("a polyline needs at least two vertices")
        object.__setattr__(self, "vertices", pts)

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.vertices)

    def segments(self) -> List[Segment]:
        """Return the consecutive segments of the chain."""
        return [
            Segment(a, b) for a, b in zip(self.vertices, self.vertices[1:])
        ]

    @property
    def length(self) -> float:
        """Total Euclidean length of the chain."""
        return sum(seg.length for seg in self.segments())

    @property
    def bbox(self) -> BoundingBox:
        """Tight axis-aligned bounding box over all vertices."""
        return BoundingBox.from_points(self.vertices)

    def contains_point(self, point: Point) -> bool:
        """Return True when ``point`` lies on one of the chain's segments."""
        return any(seg.contains_point(point) for seg in self.segments())

    def distance_to_point(self, point: Point) -> float:
        """Return the distance from ``point`` to the nearest chain point."""
        return min(seg.distance_to_point(point) for seg in self.segments())

    def point_at_distance(self, distance: float) -> Point:
        """Return the point reached after walking ``distance`` from the start.

        Distances are clamped to ``[0, length]``.
        """
        if distance <= 0:
            return self.vertices[0]
        remaining = distance
        for seg in self.segments():
            seg_len = seg.length
            if remaining <= seg_len and seg_len > 0:
                return seg.point_at(remaining / seg_len)
            remaining -= seg_len
        return self.vertices[-1]

    def point_at_fraction(self, fraction: float) -> Point:
        """Return the point at ``fraction`` of total length (0 = start)."""
        return self.point_at_distance(fraction * self.length)

    def intersects_segment(self, segment: Segment) -> bool:
        """Return True when any chain segment touches ``segment``."""
        if not self.bbox.intersects(segment.bbox):
            return False
        return any(seg.intersects(segment) for seg in self.segments())

    def intersects_polyline(self, other: "Polyline") -> bool:
        """Return True when the two chains share at least one point."""
        if not self.bbox.intersects(other.bbox):
            return False
        other_segments = other.segments()
        return any(
            a.intersects(b) for a in self.segments() for b in other_segments
        )

    def intersection_points(self, segment: Segment) -> List[Point]:
        """Return the (deduplicated) crossing points with ``segment``."""
        points: List[Point] = []
        for seg in self.segments():
            params = seg.intersection_parameters(segment)
            if params is None:
                continue
            candidate = seg.point_at(float(params[0]))
            if not any(
                math.isclose(candidate.x, p.x, abs_tol=1e-12)
                and math.isclose(candidate.y, p.y, abs_tol=1e-12)
                for p in points
            ):
                points.append(candidate)
        return points

    def simplified(self, tolerance: float) -> "Polyline":
        """Return a Douglas-Peucker simplification within ``tolerance``."""
        if tolerance < 0:
            raise GeometryError("tolerance must be non-negative")
        keep = _douglas_peucker(list(self.vertices), tolerance)
        return Polyline(keep)


def _douglas_peucker(points: List[Point], tolerance: float) -> List[Point]:
    """Recursively simplify ``points``, keeping endpoints always."""
    if len(points) < 3:
        return points
    chord = Segment(points[0], points[-1])
    if chord.is_degenerate:
        distances = [points[0].distance_to(p) for p in points[1:-1]]
    else:
        distances = [chord.distance_to_point(p) for p in points[1:-1]]
    worst = max(range(len(distances)), key=distances.__getitem__)
    if distances[worst] <= tolerance:
        return [points[0], points[-1]]
    split = worst + 1
    left = _douglas_peucker(points[: split + 1], tolerance)
    right = _douglas_peucker(points[split:], tolerance)
    return left[:-1] + right
