"""Simple polygons with optional holes.

Polygons carry the paper's region semantics: neighborhoods, cities and the
income regions of Figure 1 are polygons; queries of Types 4–7 test whether a
sampled position or an interpolated trajectory segment lies inside them.
The central non-trivial operation is :meth:`Polygon.clip_segment`, which
returns the *parameter intervals* of a segment inside the polygon — these
intervals convert linearly to time intervals for trajectory pieces, giving
region entry/exit times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import GeometryError
from repro.geometry import predicates
from repro.geometry.point import BoundingBox, Point
from repro.geometry.polyline import Polyline
from repro.geometry.segment import Segment


def _normalize_ring(points: Sequence[Point]) -> Tuple[Point, ...]:
    """Drop a duplicated closing vertex and validate ring size."""
    pts = list(points)
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts = pts[:-1]
    if len(pts) < 3:
        raise GeometryError("a polygon ring needs at least three distinct vertices")
    return tuple(pts)


def _ring_signed_area(ring: Sequence[Point]) -> float:
    """Shoelace signed area: positive for counter-clockwise rings."""
    total = 0.0
    n = len(ring)
    for i in range(n):
        a = ring[i]
        b = ring[(i + 1) % n]
        total += float(a.x) * float(b.y) - float(b.x) * float(a.y)
    return total / 2.0


def _ring_segments(ring: Sequence[Point]) -> List[Segment]:
    n = len(ring)
    return [Segment(ring[i], ring[(i + 1) % n]) for i in range(n)]


def _point_in_ring(point: Point, ring: Sequence[Point]) -> bool:
    """Even-odd ray-casting test; boundary points are NOT handled here."""
    x, y = float(point.x), float(point.y)
    inside = False
    n = len(ring)
    for i in range(n):
        ax, ay = float(ring[i].x), float(ring[i].y)
        bx, by = float(ring[(i + 1) % n].x), float(ring[(i + 1) % n].y)
        if (ay > y) != (by > y):
            x_cross = ax + (y - ay) * (bx - ax) / (by - ay)
            if x < x_cross:
                inside = not inside
    return inside


@dataclass(frozen=True)
class Polygon:
    """A simple polygon with an outer shell and zero or more holes.

    The region is *closed*: boundary points (including hole boundaries)
    belong to the polygon, matching the paper's remark that a point may
    belong to two adjacent polygons.
    """

    shell: Tuple[Point, ...]
    holes: Tuple[Tuple[Point, ...], ...]

    def __init__(
        self,
        shell: Sequence[Point],
        holes: Sequence[Sequence[Point]] = (),
    ) -> None:
        object.__setattr__(self, "shell", _normalize_ring(shell))
        object.__setattr__(
            self, "holes", tuple(_normalize_ring(hole) for hole in holes)
        )

    def __getstate__(self) -> dict:
        # The clip kernel (repro.geometry.kernels) caches this polygon's
        # flattened edge arrays on the instance, and ``bbox`` its box;
        # keep pickled payloads lean by carrying only the defining rings
        # across process boundaries — each worker rebuilds its own
        # caches on first use.
        return {"shell": self.shell, "holes": self.holes}

    def __setstate__(self, state: dict) -> None:
        object.__setattr__(self, "shell", state["shell"])
        object.__setattr__(self, "holes", state["holes"])

    # -- constructors ------------------------------------------------------

    @classmethod
    def rectangle(
        cls, min_x: float, min_y: float, max_x: float, max_y: float
    ) -> "Polygon":
        """Return the axis-aligned rectangle with the given extent."""
        if min_x >= max_x or min_y >= max_y:
            raise GeometryError("rectangle needs positive extent")
        return cls(
            [
                Point(min_x, min_y),
                Point(max_x, min_y),
                Point(max_x, max_y),
                Point(min_x, max_y),
            ]
        )

    @classmethod
    def from_box(cls, box: BoundingBox) -> "Polygon":
        """Return the rectangle covering ``box``."""
        return cls.rectangle(box.min_x, box.min_y, box.max_x, box.max_y)

    @classmethod
    def regular(cls, center: Point, radius: float, sides: int) -> "Polygon":
        """Return a regular ``sides``-gon inscribed in the given circle."""
        if sides < 3:
            raise GeometryError("a regular polygon needs at least three sides")
        if radius <= 0:
            raise GeometryError("radius must be positive")
        return cls(
            [
                Point(
                    center.x + radius * math.cos(2 * math.pi * i / sides),
                    center.y + radius * math.sin(2 * math.pi * i / sides),
                )
                for i in range(sides)
            ]
        )

    # -- basic measures ----------------------------------------------------

    @property
    def signed_area(self) -> float:
        """Shoelace area of the shell; positive when counter-clockwise."""
        return _ring_signed_area(self.shell)

    @property
    def area(self) -> float:
        """Area of the region: |shell| minus the holes' areas."""
        total = abs(_ring_signed_area(self.shell))
        for hole in self.holes:
            total -= abs(_ring_signed_area(hole))
        return total

    @property
    def perimeter(self) -> float:
        """Total boundary length, holes included."""
        total = sum(seg.length for seg in _ring_segments(self.shell))
        for hole in self.holes:
            total += sum(seg.length for seg in _ring_segments(hole))
        return total

    @property
    def centroid(self) -> Point:
        """Area centroid of the region (holes subtracted)."""
        def ring_moments(ring: Sequence[Point]) -> Tuple[float, float, float]:
            a = cx = cy = 0.0
            n = len(ring)
            for i in range(n):
                p, q = ring[i], ring[(i + 1) % n]
                cross = float(p.x) * float(q.y) - float(q.x) * float(p.y)
                a += cross
                cx += (float(p.x) + float(q.x)) * cross
                cy += (float(p.y) + float(q.y)) * cross
            return a / 2.0, cx / 6.0, cy / 6.0

        area, mx, my = ring_moments(self.shell)
        sign = 1.0 if area >= 0 else -1.0
        area, mx, my = sign * area, sign * mx, sign * my
        for hole in self.holes:
            ha, hx, hy = ring_moments(hole)
            hsign = 1.0 if ha >= 0 else -1.0
            area -= hsign * ha
            mx -= hsign * hx
            my -= hsign * hy
        if area == 0:
            raise GeometryError("centroid of a zero-area polygon")
        return Point(mx / area, my / area)

    @property
    def bbox(self) -> BoundingBox:
        """Tight bounding box of the shell (computed once: the rings
        never change)."""
        cached = getattr(self, "_bbox", None)
        if cached is None:
            cached = BoundingBox.from_points(self.shell)
            object.__setattr__(self, "_bbox", cached)
        return cached

    # -- boundary access ----------------------------------------------------

    def boundary_segments(self) -> List[Segment]:
        """Return all boundary segments: shell first, then each hole."""
        segments = _ring_segments(self.shell)
        for hole in self.holes:
            segments.extend(_ring_segments(hole))
        return segments

    def boundary_polylines(self) -> List[Polyline]:
        """Return closed polylines tracing the shell and each hole."""
        rings = [self.shell] + list(self.holes)
        return [Polyline(list(ring) + [ring[0]]) for ring in rings]

    def on_boundary(self, point: Point) -> bool:
        """Return True when ``point`` lies on the shell or a hole boundary."""
        return any(
            seg.contains_point(point) for seg in self.boundary_segments()
        )

    # -- point / region predicates ------------------------------------------

    def contains_point(self, point: Point) -> bool:
        """Return True when ``point`` lies in the closed region.

        Boundary points count as inside; hole interiors count as outside.
        """
        if not self.bbox.contains_point(point):
            return False
        if self.on_boundary(point):
            return True
        if not _point_in_ring(point, self.shell):
            return False
        return not any(_point_in_ring(point, hole) for hole in self.holes)

    def strictly_contains_point(self, point: Point) -> bool:
        """Return True for interior points only (boundary excluded)."""
        return self.contains_point(point) and not self.on_boundary(point)

    def intersects_segment(self, segment: Segment) -> bool:
        """Return True when the closed region meets the closed segment."""
        if not self.bbox.intersects(segment.bbox):
            return False
        if self.contains_point(segment.start) or self.contains_point(segment.end):
            return True
        return any(seg.intersects(segment) for seg in self.boundary_segments())

    def intersects_polyline(self, polyline: Polyline) -> bool:
        """Return True when any chain segment meets the region."""
        if not self.bbox.intersects(polyline.bbox):
            return False
        return any(self.intersects_segment(seg) for seg in polyline.segments())

    def intersects_polygon(self, other: "Polygon") -> bool:
        """Return True when the two closed regions share at least one point."""
        if not self.bbox.intersects(other.bbox):
            return False
        if any(self.contains_point(p) for p in other.shell):
            return True
        if any(other.contains_point(p) for p in self.shell):
            return True
        other_boundary = other.boundary_segments()
        return any(
            a.intersects(b)
            for a in self.boundary_segments()
            for b in other_boundary
        )

    def contains_polygon(self, other: "Polygon") -> bool:
        """Return True when ``other`` lies entirely inside this region.

        Checked as: every vertex of ``other`` inside, and no proper boundary
        crossing between the two boundaries.
        """
        if not self.bbox.contains_box(other.bbox):
            return False
        if not all(self.contains_point(p) for p in other.shell):
            return False
        for a in self.boundary_segments():
            for b in other.boundary_segments():
                if predicates.segments_properly_intersect(
                    a.start.as_tuple(),
                    a.end.as_tuple(),
                    b.start.as_tuple(),
                    b.end.as_tuple(),
                ):
                    return False
        return True

    # -- segment clipping (entry/exit parameters) ----------------------------

    def boundary_crossing_parameters(self, segment: Segment) -> List[float]:
        """Return sorted parameters of ``segment`` where it meets the boundary."""
        params: List[float] = []
        for edge in self.boundary_segments():
            hit = segment.intersection_parameters(edge)
            if hit is not None:
                params.append(float(hit[0]))
                continue
            overlap = segment.overlap(edge)
            if overlap is not None:
                params.append(segment.parameter_of(overlap.start))
                params.append(segment.parameter_of(overlap.end))
        params.sort()
        deduped: List[float] = []
        for p in params:
            if not deduped or not math.isclose(p, deduped[-1], abs_tol=1e-12):
                deduped.append(p)
        return deduped

    def clip_segment(self, segment: Segment) -> List[Tuple[float, float]]:
        """Return the parameter intervals of ``segment`` inside the region.

        Each returned ``(s0, s1)`` with ``0 <= s0 < s1 <= 1`` marks a maximal
        sub-segment contained in the closed polygon.  For a trajectory piece
        covering times ``[t_i, t_{i+1}]`` the interval maps affinely to the
        time spent inside the region.
        """
        if segment.is_degenerate:
            if self.contains_point(segment.start):
                return [(0.0, 1.0)]
            return []
        if not self.bbox.intersects(segment.bbox):
            return []
        cuts = [0.0] + [
            p for p in self.boundary_crossing_parameters(segment) if 0 < p < 1
        ] + [1.0]
        # Midpoints of boundary-sliding pieces can land a few ulps off the
        # boundary; treat points within a scale-relative tolerance of the
        # boundary as inside (the region is closed).
        box = self.bbox
        tolerance = 1e-9 * max(box.width, box.height, 1.0)
        intervals: List[Tuple[float, float]] = []
        for s0, s1 in zip(cuts, cuts[1:]):
            if s1 - s0 <= 1e-12:
                continue
            mid = segment.point_at((s0 + s1) / 2)
            inside = self.contains_point(mid)
            if not inside and self._near_boundary(mid, tolerance):
                # Candidate boundary-sliding piece.  The cut set only
                # contains true boundary crossings, so a piece can drift
                # in and out of the tolerance band without a cut; demand
                # the piece endpoints hug the region too, or a segment
                # passing just outside a (near-degenerate) edge would be
                # swallowed whole.
                inside = all(
                    self.contains_point(p) or self._near_boundary(p, tolerance)
                    for p in (segment.point_at(s0), segment.point_at(s1))
                )
            if inside:
                if intervals and math.isclose(intervals[-1][1], s0, abs_tol=1e-12):
                    intervals[-1] = (intervals[-1][0], s1)
                else:
                    intervals.append((s0, s1))
        return intervals

    def _near_boundary(self, point: Point, tolerance: float) -> bool:
        """True when ``point`` lies within ``tolerance`` of any edge."""
        return any(
            edge.distance_to_point(point) <= tolerance
            for edge in self.boundary_segments()
        )

    def clipped_segment_length(self, segment: Segment) -> float:
        """Return the length of the part of ``segment`` inside the region."""
        total = segment.length
        return sum((s1 - s0) * total for s0, s1 in self.clip_segment(segment))

    # -- sampling ------------------------------------------------------------

    def sample_interior_point(self) -> Point:
        """Return some point strictly inside the region.

        Uses the centroid when it lies inside; otherwise scans a diagonal
        fan from each shell vertex.  Raises when the polygon is degenerate.
        """
        centroid = self.centroid
        if self.contains_point(centroid) and not self.on_boundary(centroid):
            return centroid
        n = len(self.shell)
        for i in range(n):
            a = self.shell[i]
            b = self.shell[(i + 1) % n]
            c = self.shell[(i + 2) % n]
            candidate = Point((a.x + b.x + c.x) / 3, (a.y + b.y + c.y) / 3)
            if self.contains_point(candidate) and not self.on_boundary(candidate):
                return candidate
        raise GeometryError("could not find an interior point")
