"""Line segments: the building block of polylines, polygon edges and
linearly-interpolated trajectory pieces.

A trajectory sample interval ``(t_i, p_i) .. (t_{i+1}, p_{i+1})`` maps to a
:class:`Segment` whose parameter ``s in [0, 1]`` is an affine re-scaling of
time; the crossing parameters returned by :meth:`Segment.intersection_parameters`
therefore convert directly to crossing *times*, which is what the paper's
Type-7 (trajectory) queries need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.errors import GeometryError
from repro.geometry import predicates
from repro.geometry.point import BoundingBox, Point


@dataclass(frozen=True)
class Segment:
    """A closed, directed line segment from ``start`` to ``end``."""

    start: Point
    end: Point

    @property
    def is_degenerate(self) -> bool:
        """True when start and end coincide (a zero-length segment)."""
        return self.start.x == self.end.x and self.start.y == self.end.y

    @property
    def length(self) -> float:
        """Euclidean length of the segment."""
        return self.start.distance_to(self.end)

    @property
    def midpoint(self) -> Point:
        """Midpoint of the segment."""
        return self.start.midpoint(self.end)

    @property
    def bbox(self) -> BoundingBox:
        """Tight axis-aligned bounding box."""
        return BoundingBox.from_points((self.start, self.end))

    def point_at(self, s: float) -> Point:
        """Return the point at parameter ``s``; ``s=0`` is start, ``s=1`` end.

        Values outside ``[0, 1]`` extrapolate along the supporting line.
        """
        return Point(
            self.start.x + s * (self.end.x - self.start.x),
            self.start.y + s * (self.end.y - self.start.y),
        )

    def contains_point(self, point: Point) -> bool:
        """Return True when ``point`` lies on the closed segment."""
        return predicates.on_segment(
            point.as_tuple(), self.start.as_tuple(), self.end.as_tuple()
        )

    def parameter_of(self, point: Point) -> float:
        """Return the parameter ``s`` of a point assumed on the segment.

        Raises :class:`GeometryError` for degenerate segments; for points off
        the segment the result is the parameter of the orthogonal projection.
        """
        dx = self.end.x - self.start.x
        dy = self.end.y - self.start.y
        denom = dx * dx + dy * dy
        if denom == 0:
            if self.is_degenerate:
                raise GeometryError("parameter_of on a degenerate segment")
            # Subnormal extents underflow in float; fall back to exact
            # rational arithmetic.
            from fractions import Fraction

            edx = Fraction(float(self.end.x)) - Fraction(float(self.start.x))
            edy = Fraction(float(self.end.y)) - Fraction(float(self.start.y))
            enum = (
                (Fraction(float(point.x)) - Fraction(float(self.start.x))) * edx
                + (Fraction(float(point.y)) - Fraction(float(self.start.y))) * edy
            )
            return float(enum / (edx * edx + edy * edy))
        return ((point.x - self.start.x) * dx + (point.y - self.start.y) * dy) / denom

    def distance_to_point(self, point: Point) -> float:
        """Return the distance from ``point`` to the closed segment."""
        dx = self.end.x - self.start.x
        dy = self.end.y - self.start.y
        # The squared length can underflow to zero for subnormal extents;
        # treat those as degenerate too.
        if self.is_degenerate or dx * dx + dy * dy == 0:
            return self.start.distance_to(point)
        s = self.parameter_of(point)
        s = min(1.0, max(0.0, s))
        return self.point_at(s).distance_to(point)

    def intersects(self, other: "Segment") -> bool:
        """Return True when the two closed segments share at least one point."""
        return predicates.segments_intersect(
            self.start.as_tuple(),
            self.end.as_tuple(),
            other.start.as_tuple(),
            other.end.as_tuple(),
        )

    def intersection_parameters(
        self, other: "Segment"
    ) -> Optional[Tuple[float, float]]:
        """Return ``(s, u)`` for a unique crossing point, else None.

        ``s`` parameterizes this segment, ``u`` the other.  Collinear
        overlaps return None (no unique point); use :meth:`overlap` for them.
        """
        return predicates.segment_intersection_parameters(
            self.start.as_tuple(),
            self.end.as_tuple(),
            other.start.as_tuple(),
            other.end.as_tuple(),
        )

    def intersection(self, other: "Segment") -> Union[None, Point, "Segment"]:
        """Return the intersection: None, a single Point, or an overlap Segment."""
        params = self.intersection_parameters(other)
        if params is not None:
            return self.point_at(float(params[0]))
        overlap = self.overlap(other)
        if overlap is not None:
            return overlap
        if self.intersects(other):
            # Parallel but touching in exactly one point (shared endpoint).
            for p in (self.start, self.end):
                if other.contains_point(p):
                    return p
            for p in (other.start, other.end):
                if self.contains_point(p):
                    return p
        return None

    def overlap(self, other: "Segment") -> Optional["Segment"]:
        """Return the shared collinear sub-segment, or None.

        Returns None when the overlap degenerates to a single point or the
        segments are not collinear.
        """
        a, b = self.start.as_tuple(), self.end.as_tuple()
        c, d = other.start.as_tuple(), other.end.as_tuple()
        if predicates.orientation(a, b, c) != 0 or predicates.orientation(a, b, d) != 0:
            return None
        if self.is_degenerate or other.is_degenerate:
            return None
        candidates: List[Tuple[float, Point]] = []
        for p in (other.start, other.end):
            if self.contains_point(p):
                candidates.append((self.parameter_of(p), p))
        for p in (self.start, self.end):
            if other.contains_point(p):
                candidates.append((self.parameter_of(p), p))
        if len(candidates) < 2:
            return None
        candidates.sort(key=lambda item: item[0])
        lo, hi = candidates[0], candidates[-1]
        if math.isclose(lo[0], hi[0], abs_tol=1e-15):
            return None
        return Segment(lo[1], hi[1])

    def clipped_to_box(self, box: BoundingBox) -> Optional["Segment"]:
        """Return the sub-segment inside ``box`` (Liang-Barsky), or None.

        Degenerate clips (single touching point) return None.
        """
        x0, y0 = float(self.start.x), float(self.start.y)
        dx = float(self.end.x) - x0
        dy = float(self.end.y) - y0
        t0, t1 = 0.0, 1.0
        checks = (
            (-dx, x0 - box.min_x),
            (dx, box.max_x - x0),
            (-dy, y0 - box.min_y),
            (dy, box.max_y - y0),
        )
        for p, q in checks:
            if p == 0:
                if q < 0:
                    return None
                continue
            r = q / p
            if p < 0:
                if r > t1:
                    return None
                t0 = max(t0, r)
            else:
                if r < t0:
                    return None
                t1 = min(t1, r)
        if t0 >= t1:
            return None
        return Segment(self.point_at(t0), self.point_at(t1))
