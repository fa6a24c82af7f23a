"""Points and axis-aligned bounding boxes.

These are the leaves of the geometry kernel: every other geometry class is
built from :class:`Point` and answers extent queries with
:class:`BoundingBox`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

from repro.errors import GeometryError


@dataclass(frozen=True, order=True)
class Point:
    """An immutable point of the Euclidean plane.

    Coordinates are typically floats, but any :class:`numbers.Rational`
    (int, :class:`fractions.Fraction`) works; the robust predicates in
    :mod:`repro.geometry.predicates` exploit exact inputs.
    """

    x: float
    y: float

    def as_tuple(self) -> Tuple[float, float]:
        """Return the point as a plain ``(x, y)`` tuple."""
        return (self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        """Return the Euclidean distance to ``other``."""
        return math.hypot(float(self.x) - float(other.x), float(self.y) - float(other.y))

    def squared_distance_to(self, other: "Point") -> float:
        """Return the squared Euclidean distance (no square root, exact for rationals)."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def midpoint(self, other: "Point") -> "Point":
        """Return the midpoint of the segment joining this point to ``other``."""
        return Point((self.x + other.x) / 2, (self.y + other.y) / 2)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y


@dataclass(frozen=True)
class BoundingBox:
    """A closed axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise GeometryError(
                f"degenerate bounding box: ({self.min_x}, {self.min_y}) .. "
                f"({self.max_x}, {self.max_y})"
            )

    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "BoundingBox":
        """Return the tightest box covering ``points`` (at least one required)."""
        pts = list(points)
        if not pts:
            raise GeometryError("bounding box of an empty point set")
        return cls(
            min(p.x for p in pts),
            min(p.y for p in pts),
            max(p.x for p in pts),
            max(p.y for p in pts),
        )

    @property
    def width(self) -> float:
        """Extent along the x axis."""
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        """Extent along the y axis."""
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        """Area of the box (zero for degenerate boxes)."""
        return self.width * self.height

    @property
    def center(self) -> Point:
        """Center point of the box."""
        return Point((self.min_x + self.max_x) / 2, (self.min_y + self.max_y) / 2)

    def contains_point(self, point: Point) -> bool:
        """Return True when ``point`` lies in the closed box."""
        return (
            self.min_x <= point.x <= self.max_x
            and self.min_y <= point.y <= self.max_y
        )

    def contains_box(self, other: "BoundingBox") -> bool:
        """Return True when ``other`` lies entirely inside this box."""
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and other.max_x <= self.max_x
            and other.max_y <= self.max_y
        )

    def intersects(self, other: "BoundingBox") -> bool:
        """Return True when the closed boxes share at least one point."""
        return not (
            other.min_x > self.max_x
            or other.max_x < self.min_x
            or other.min_y > self.max_y
            or other.max_y < self.min_y
        )

    def union(self, other: "BoundingBox") -> "BoundingBox":
        """Return the smallest box covering both boxes."""
        return BoundingBox(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def expanded(self, margin: float) -> "BoundingBox":
        """Return the box grown by ``margin`` on all four sides."""
        if margin < 0 and (2 * margin > self.width or 2 * margin > self.height):
            raise GeometryError("negative margin larger than box extent")
        return BoundingBox(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )
