"""Tests for Point and BoundingBox."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import GeometryError
from repro.geometry import BoundingBox, Point

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
point_st = st.builds(Point, coords, coords)


class TestPoint:
    def test_as_tuple(self):
        assert Point(1.5, -2.0).as_tuple() == (1.5, -2.0)

    def test_distance_345(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_squared_distance_exact(self):
        assert Point(0, 0).squared_distance_to(Point(3, 4)) == 25

    def test_midpoint(self):
        assert Point(0, 0).midpoint(Point(2, 4)) == Point(1, 2)

    def test_iteration_unpacks(self):
        x, y = Point(7, 8)
        assert (x, y) == (7, 8)

    def test_equality_and_hash(self):
        assert Point(1, 2) == Point(1, 2)
        assert hash(Point(1, 2)) == hash(Point(1, 2))
        assert Point(1, 2) != Point(2, 1)

    def test_ordering_is_lexicographic(self):
        assert Point(1, 5) < Point(2, 0)
        assert Point(1, 1) < Point(1, 2)

    @given(point_st, point_st)
    def test_distance_symmetry(self, p, q):
        assert p.distance_to(q) == pytest.approx(q.distance_to(p))

    @given(point_st, point_st, point_st)
    def test_triangle_inequality(self, p, q, r):
        assert p.distance_to(r) <= p.distance_to(q) + q.distance_to(r) + 1e-6

    @given(point_st)
    def test_distance_to_self_is_zero(self, p):
        assert p.distance_to(p) == 0.0


class TestBoundingBox:
    def test_rejects_inverted(self):
        with pytest.raises(GeometryError):
            BoundingBox(1, 0, 0, 1)

    def test_from_points(self):
        box = BoundingBox.from_points([Point(1, 5), Point(-2, 3), Point(4, 4)])
        assert box == BoundingBox(-2, 3, 4, 5)

    def test_from_empty_raises(self):
        with pytest.raises(GeometryError):
            BoundingBox.from_points([])

    def test_measures(self):
        box = BoundingBox(0, 0, 4, 2)
        assert box.width == 4
        assert box.height == 2
        assert box.area == 8
        assert box.center == Point(2, 1)

    def test_contains_point_closed(self):
        box = BoundingBox(0, 0, 1, 1)
        assert box.contains_point(Point(0, 0))
        assert box.contains_point(Point(1, 1))
        assert box.contains_point(Point(0.5, 0.5))
        assert not box.contains_point(Point(1.001, 0.5))

    def test_contains_box(self):
        outer = BoundingBox(0, 0, 10, 10)
        assert outer.contains_box(BoundingBox(1, 1, 9, 9))
        assert outer.contains_box(outer)
        assert not outer.contains_box(BoundingBox(5, 5, 11, 9))

    def test_intersects_touching_edge(self):
        assert BoundingBox(0, 0, 1, 1).intersects(BoundingBox(1, 0, 2, 1))

    def test_intersects_disjoint(self):
        assert not BoundingBox(0, 0, 1, 1).intersects(BoundingBox(2, 2, 3, 3))

    def test_union(self):
        union = BoundingBox(0, 0, 1, 1).union(BoundingBox(2, -1, 3, 0.5))
        assert union == BoundingBox(0, -1, 3, 1)

    def test_expanded(self):
        assert BoundingBox(0, 0, 1, 1).expanded(1) == BoundingBox(-1, -1, 2, 2)

    def test_expanded_negative_too_large_raises(self):
        with pytest.raises(GeometryError):
            BoundingBox(0, 0, 1, 1).expanded(-2)

    @given(st.lists(point_st, min_size=1, max_size=20))
    def test_from_points_covers_all(self, pts):
        box = BoundingBox.from_points(pts)
        assert all(box.contains_point(p) for p in pts)

    @given(st.lists(point_st, min_size=2, max_size=10))
    def test_union_is_commutative_and_covering(self, pts):
        a = BoundingBox.from_points(pts[: len(pts) // 2 + 1])
        b = BoundingBox.from_points(pts[len(pts) // 2 :])
        assert a.union(b) == b.union(a)
        assert a.union(b).contains_box(a)
        assert a.union(b).contains_box(b)
