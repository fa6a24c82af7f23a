"""Place-of-interest geometry: a point feature with an influence radius.

The follow-up paper ("Aggregation Languages for Moving Object and Places
of Interest Data") extends the GIS dimension model with *places of
interest*: point features carrying a radius within which a moving object
is considered to be *at* the place.  Geometrically a POI is a closed
disc; it participates in layers, overlays and spatial indexes through
the same ``geometry_bbox`` / ``geometries_intersect`` dispatch as the
other kinds.

``Poi`` is deliberately *not* a :class:`~repro.geometry.point.Point`
subclass: :func:`repro.gis.geometries.kind_of` classifies by
``isinstance`` and a disc must never masquerade as a node.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.errors import GeometryError
from repro.geometry.point import BoundingBox, Point
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import Polyline
from repro.geometry.segment import Segment


class Poi:
    """A closed disc: ``center`` plus a strictly positive ``radius``.

    Membership is inclusive (``distance <= radius``), matching the
    closed polygons elsewhere in the model: an object sampled exactly
    on the rim is *at* the place.
    """

    __slots__ = ("center", "radius")

    def __init__(self, center: Point, radius: float) -> None:
        if not isinstance(center, Point):
            raise GeometryError(
                f"POI center must be a Point, got {type(center).__name__}"
            )
        radius = float(radius)
        if not math.isfinite(radius) or radius <= 0.0:
            raise GeometryError(
                f"POI radius must be finite and > 0, got {radius!r}"
            )
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poi is immutable")

    def __getstate__(self) -> dict:
        return {"center": self.center, "radius": self.radius}

    def __setstate__(self, state: dict) -> None:
        # (The default would ``setattr`` each slot, which raises.)
        object.__setattr__(self, "center", state["center"])
        object.__setattr__(self, "radius", state["radius"])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poi):
            return NotImplemented
        return self.center == other.center and self.radius == other.radius

    def __hash__(self) -> int:
        return hash((Poi, self.center, self.radius))

    def __repr__(self) -> str:
        return f"Poi({self.center!r}, {self.radius!r})"

    @classmethod
    def at(cls, x: float, y: float, radius: float) -> "Poi":
        return cls(Point(x, y), radius)

    @property
    def bbox(self) -> BoundingBox:
        c, r = self.center, self.radius
        return BoundingBox(c.x - r, c.y - r, c.x + r, c.y + r)

    @property
    def area(self) -> float:
        return math.pi * self.radius * self.radius

    def as_tuple(self) -> Tuple[float, float, float]:
        return (self.center.x, self.center.y, self.radius)

    # -- predicates -----------------------------------------------------------

    def contains_point(self, point: Point) -> bool:
        """Closed-disc membership: ``|point - center| <= radius``."""
        return self.center.squared_distance_to(point) <= self.radius * self.radius

    def contains_segment(self, segment: Segment) -> bool:
        """Both endpoints in the disc (discs are convex)."""
        return self.contains_point(segment.start) and self.contains_point(
            segment.end
        )

    def intersects_segment(self, segment: Segment) -> bool:
        """Does the segment touch the closed disc?"""
        return segment.distance_to_point(self.center) <= self.radius

    def intersects_polyline(self, polyline: Polyline) -> bool:
        return any(self.intersects_segment(s) for s in polyline.segments())

    def intersects_polygon(self, polygon: Polygon) -> bool:
        """Disc-vs-polygon: center inside, or boundary within radius."""
        if polygon.contains_point(self.center):
            return True
        return any(
            seg.distance_to_point(self.center) <= self.radius
            for seg in polygon.boundary_segments()
        )

    def intersects_poi(self, other: "Poi") -> bool:
        limit = self.radius + other.radius
        return self.center.squared_distance_to(other.center) <= limit * limit

    def contains_poi(self, other: "Poi") -> bool:
        """Disc containment: ``|c1-c2| + r2 <= r1``."""
        return (
            self.center.distance_to(other.center) + other.radius
            <= self.radius
        )

    def contains_polygon(self, polygon: Polygon) -> bool:
        """All boundary vertices in the disc (convexity covers the rest)."""
        return all(
            self.contains_point(seg.start) and self.contains_point(seg.end)
            for seg in polygon.boundary_segments()
        )

    def inside_polygon(self, polygon: Polygon) -> bool:
        """Is the whole disc inside the polygon?

        Center containment plus a boundary-clearance test: the disc fits
        iff the center is interior and no boundary edge comes within
        ``radius`` of it.
        """
        if not polygon.contains_point(self.center):
            return False
        return all(
            seg.distance_to_point(self.center) >= self.radius
            for seg in polygon.boundary_segments()
        )
