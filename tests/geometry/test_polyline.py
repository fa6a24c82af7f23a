"""Tests for Polyline."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import GeometryError
from repro.geometry import Point, Polyline, Segment

coords = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)
point_st = st.builds(Point, coords, coords)
polyline_st = st.lists(point_st, min_size=2, max_size=8, unique=True).map(Polyline)


def l_shape() -> Polyline:
    return Polyline([Point(0, 0), Point(4, 0), Point(4, 3)])


class TestConstruction:
    def test_needs_two_vertices(self):
        with pytest.raises(GeometryError):
            Polyline([Point(0, 0)])

    def test_len_and_iter(self):
        line = l_shape()
        assert len(line) == 3
        assert list(line) == [Point(0, 0), Point(4, 0), Point(4, 3)]

    def test_segments(self):
        assert l_shape().segments() == [
            Segment(Point(0, 0), Point(4, 0)),
            Segment(Point(4, 0), Point(4, 3)),
        ]


class TestMeasures:
    def test_length(self):
        assert l_shape().length == pytest.approx(7)

    def test_bbox(self):
        box = l_shape().bbox
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (0, 0, 4, 3)

    def test_point_at_distance(self):
        line = l_shape()
        assert line.point_at_distance(0) == Point(0, 0)
        assert line.point_at_distance(4) == Point(4, 0)
        assert line.point_at_distance(5.5) == Point(4, 1.5)
        assert line.point_at_distance(100) == Point(4, 3)
        assert line.point_at_distance(-1) == Point(0, 0)

    def test_point_at_fraction(self):
        line = l_shape()
        assert line.point_at_fraction(0.5) == Point(3.5, 0)

    @given(polyline_st, st.floats(min_value=0, max_value=1))
    def test_point_at_fraction_within_bbox(self, line, f):
        p = line.point_at_fraction(f)
        assert line.bbox.expanded(1e-6).contains_point(p)

    @given(polyline_st)
    def test_length_at_least_endpoint_distance(self, line):
        direct = line.vertices[0].distance_to(line.vertices[-1])
        assert line.length >= direct - 1e-9


class TestPredicates:
    def test_contains_vertex_and_interior(self):
        line = l_shape()
        assert line.contains_point(Point(4, 0))
        assert line.contains_point(Point(2, 0))
        assert not line.contains_point(Point(2, 1))

    def test_distance_to_point(self):
        assert l_shape().distance_to_point(Point(2, 2)) == pytest.approx(2)
        assert l_shape().distance_to_point(Point(5, 3)) == pytest.approx(1)

    def test_intersects_segment(self):
        line = l_shape()
        assert line.intersects_segment(Segment(Point(2, -1), Point(2, 1)))
        assert not line.intersects_segment(Segment(Point(0, 1), Point(3, 2)))

    def test_intersects_polyline(self):
        line = l_shape()
        crossing = Polyline([Point(3, -1), Point(3, 5)])
        parallel = Polyline([Point(0, 1), Point(3, 1)])
        assert line.intersects_polyline(crossing)
        assert not line.intersects_polyline(parallel)

    def test_intersection_points_dedupes(self):
        line = Polyline([Point(0, 0), Point(2, 0), Point(4, 0)])
        # Vertical segment through the shared vertex (2,0) touches both
        # chain segments; the crossing must be reported once.
        hits = line.intersection_points(Segment(Point(2, -1), Point(2, 1)))
        assert len(hits) == 1
        assert hits[0].x == pytest.approx(2)

    def test_intersection_points_multiple(self):
        zigzag = Polyline([Point(0, 1), Point(1, -1), Point(2, 1), Point(3, -1)])
        hits = zigzag.intersection_points(Segment(Point(-1, 0), Point(4, 0)))
        assert len(hits) == 3


class TestResampleSimplify:
    def test_simplify_drops_collinear(self):
        line = Polyline([Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0)])
        assert len(line.simplified(0.0)) == 2

    def test_simplify_keeps_real_corner(self):
        line = Polyline([Point(0, 0), Point(2, 2), Point(4, 0)])
        assert len(line.simplified(0.5)) == 3

    def test_simplify_removes_small_wiggle(self):
        line = Polyline([Point(0, 0), Point(2, 0.01), Point(4, 0)])
        assert len(line.simplified(0.5)) == 2

    def test_simplify_negative_tolerance_raises(self):
        with pytest.raises(GeometryError):
            l_shape().simplified(-1)

    @given(polyline_st, st.floats(min_value=0, max_value=10))
    def test_simplified_never_longer(self, line, tol):
        assert line.simplified(tol).length <= line.length + 1e-9
