"""Higher-level geometric algorithms used by aggregation and overlay.

The geometric-aggregation operator of Definition 4 integrates a density over
a region built from layer geometries; the summable rewriting needs areas,
lengths and pairwise intersection measures, which this module provides:
convex hulls, ear-clipping triangulation, convex clipping
(Sutherland-Hodgman) and an exact/approximate polygon-intersection area.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import GeometryError
from repro.geometry import predicates
from repro.geometry.point import BoundingBox, Point
from repro.geometry.polygon import Polygon
from repro.geometry.segment import Segment


def convex_hull(points: Iterable[Point]) -> List[Point]:
    """Return the convex hull as a counter-clockwise list of vertices.

    Uses Andrew's monotone chain.  Collinear points on the hull boundary are
    dropped.  Fewer than three non-collinear input points raise
    :class:`GeometryError`.
    """
    pts = sorted(set((float(p.x), float(p.y)) for p in points))
    if len(pts) < 3:
        raise GeometryError("convex hull needs at least three distinct points")

    def half_hull(sequence: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
        hull: List[Tuple[float, float]] = []
        for p in sequence:
            while (
                len(hull) >= 2
                and predicates.orientation(hull[-2], hull[-1], p) <= 0
            ):
                hull.pop()
            hull.append(p)
        return hull

    lower = half_hull(pts)
    upper = half_hull(list(reversed(pts)))
    ring = lower[:-1] + upper[:-1]
    if len(ring) < 3:
        raise GeometryError("all points are collinear")
    return [Point(x, y) for x, y in ring]


def is_convex(polygon: Polygon) -> bool:
    """Return True when the polygon shell is convex (and has no holes)."""
    if polygon.holes:
        return False
    ring = polygon.shell
    n = len(ring)
    signs = set()
    for i in range(n):
        o = predicates.orientation(
            ring[i].as_tuple(),
            ring[(i + 1) % n].as_tuple(),
            ring[(i + 2) % n].as_tuple(),
        )
        if o != 0:
            signs.add(o)
        if len(signs) > 1:
            return False
    return True


def triangulate(polygon: Polygon) -> List[Tuple[Point, Point, Point]]:
    """Ear-clipping triangulation of a simple polygon without holes.

    Returns ``len(shell) - 2`` triangles whose areas sum to the polygon
    area.  Raises for polygons with holes (triangulate the shell instead).
    """
    if polygon.holes:
        raise GeometryError("ear clipping does not support holes")
    ring = list(polygon.shell)
    if polygon.signed_area < 0:
        ring.reverse()
    triangles: List[Tuple[Point, Point, Point]] = []
    guard = 0
    while len(ring) > 3:
        guard += 1
        if guard > 10000:
            raise GeometryError("triangulation did not converge (non-simple polygon?)")
        n = len(ring)
        clipped = False
        for i in range(n):
            prev_pt, ear_pt, next_pt = ring[i - 1], ring[i], ring[(i + 1) % n]
            if (
                predicates.orientation(
                    prev_pt.as_tuple(), ear_pt.as_tuple(), next_pt.as_tuple()
                )
                <= 0
            ):
                continue
            triangle = (prev_pt, ear_pt, next_pt)
            if any(
                _point_in_triangle(other, triangle)
                for j, other in enumerate(ring)
                if other not in triangle
            ):
                continue
            triangles.append(triangle)
            del ring[i]
            clipped = True
            break
        if not clipped:
            raise GeometryError("no ear found (non-simple polygon?)")
    triangles.append((ring[0], ring[1], ring[2]))
    return triangles


def _point_in_triangle(p: Point, triangle: Tuple[Point, Point, Point]) -> bool:
    """Closed containment test against a CCW triangle.

    Boundary points count as inside: an ear whose diagonal passes through a
    reflex vertex is invalid, so ear clipping must reject it.
    """
    a, b, c = triangle
    return (
        predicates.orientation(a.as_tuple(), b.as_tuple(), p.as_tuple()) >= 0
        and predicates.orientation(b.as_tuple(), c.as_tuple(), p.as_tuple()) >= 0
        and predicates.orientation(c.as_tuple(), a.as_tuple(), p.as_tuple()) >= 0
    )


def triangle_area(a: Point, b: Point, c: Point) -> float:
    """Unsigned area of the triangle ``abc``."""
    return abs(
        (float(b.x) - float(a.x)) * (float(c.y) - float(a.y))
        - (float(b.y) - float(a.y)) * (float(c.x) - float(a.x))
    ) / 2.0


def clip_ring_convex(
    subject: Sequence[Point], clip: Polygon
) -> List[Point]:
    """Sutherland-Hodgman: clip a ring against a *convex* polygon.

    Returns the clipped ring (possibly empty).  The clip polygon must be
    convex and hole-free.
    """
    if not is_convex(clip):
        raise GeometryError("Sutherland-Hodgman requires a convex clip polygon")
    ring = list(clip.shell)
    if clip.signed_area < 0:
        ring.reverse()
    output = list(subject)
    n = len(ring)
    for i in range(n):
        if not output:
            return []
        edge_a, edge_b = ring[i], ring[(i + 1) % n]
        input_ring = output
        output = []
        for j, current in enumerate(input_ring):
            previous = input_ring[j - 1]
            current_in = (
                predicates.orientation(
                    edge_a.as_tuple(), edge_b.as_tuple(), current.as_tuple()
                )
                >= 0
            )
            previous_in = (
                predicates.orientation(
                    edge_a.as_tuple(), edge_b.as_tuple(), previous.as_tuple()
                )
                >= 0
            )
            if current_in:
                if not previous_in:
                    crossing = _line_intersection(previous, current, edge_a, edge_b)
                    if crossing is not None:
                        output.append(crossing)
                output.append(current)
            elif previous_in:
                crossing = _line_intersection(previous, current, edge_a, edge_b)
                if crossing is not None:
                    output.append(crossing)
    return output


def _line_intersection(
    a: Point, b: Point, c: Point, d: Point
) -> Point | None:
    """Intersection of line ``ab`` with line ``cd`` (not segment-bounded)."""
    rx, ry = float(b.x) - float(a.x), float(b.y) - float(a.y)
    qx, qy = float(d.x) - float(c.x), float(d.y) - float(c.y)
    denom = rx * qy - ry * qx
    if denom == 0:
        return None
    s = ((float(c.x) - float(a.x)) * qy - (float(c.y) - float(a.y)) * qx) / denom
    return Point(float(a.x) + s * rx, float(a.y) + s * ry)


def polygon_intersection_area(
    a: Polygon, b: Polygon, resolution: int = 128
) -> float:
    """Area of the intersection of two polygons.

    Exact (via triangulation + convex clipping) when either polygon is
    convex and both are hole-free; otherwise estimated on a
    ``resolution x resolution`` grid over the bounding-box overlap.
    """
    if not a.bbox.intersects(b.bbox):
        return 0.0
    if not a.holes and not b.holes:
        if is_convex(b):
            return _triangulated_clip_area(a, b)
        if is_convex(a):
            return _triangulated_clip_area(b, a)
    return _grid_intersection_area(a, b, resolution)


def _triangulated_clip_area(subject: Polygon, convex_clip: Polygon) -> float:
    total = 0.0
    for tri in triangulate(subject):
        clipped = clip_ring_convex(tri, convex_clip)
        if len(clipped) >= 3:
            total += abs(_ring_area(clipped))
    return total


def _ring_area(ring: Sequence[Point]) -> float:
    total = 0.0
    n = len(ring)
    for i in range(n):
        p, q = ring[i], ring[(i + 1) % n]
        total += float(p.x) * float(q.y) - float(q.x) * float(p.y)
    return total / 2.0


def _grid_intersection_area(a: Polygon, b: Polygon, resolution: int) -> float:
    box_a, box_b = a.bbox, b.bbox
    overlap = BoundingBox(
        max(box_a.min_x, box_b.min_x),
        max(box_a.min_y, box_b.min_y),
        min(box_a.max_x, box_b.max_x),
        min(box_a.max_y, box_b.max_y),
    )
    if overlap.width <= 0 or overlap.height <= 0:
        return 0.0
    dx = overlap.width / resolution
    dy = overlap.height / resolution
    cell_area = dx * dy
    total = 0.0
    for i in range(resolution):
        x = overlap.min_x + (i + 0.5) * dx
        for j in range(resolution):
            y = overlap.min_y + (j + 0.5) * dy
            p = Point(x, y)
            if a.contains_point(p) and b.contains_point(p):
                total += cell_area
    return total


def polyline_length_inside(polygon: Polygon, segments: Iterable[Segment]) -> float:
    """Total length of the given segments that lies inside ``polygon``."""
    return sum(polygon.clipped_segment_length(seg) for seg in segments)
