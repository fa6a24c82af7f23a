"""Tests for Segment operations."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import GeometryError
from repro.geometry import BoundingBox, Point, Segment

coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
point_st = st.builds(Point, coords, coords)
segment_st = st.builds(Segment, point_st, point_st).filter(
    lambda s: not s.is_degenerate
)


class TestBasics:
    def test_length(self):
        assert Segment(Point(0, 0), Point(3, 4)).length == pytest.approx(5)

    def test_degenerate(self):
        assert Segment(Point(1, 1), Point(1, 1)).is_degenerate
        assert not Segment(Point(1, 1), Point(1, 2)).is_degenerate

    def test_midpoint(self):
        assert Segment(Point(0, 0), Point(2, 2)).midpoint == Point(1, 1)

    def test_bbox(self):
        seg = Segment(Point(2, -1), Point(0, 3))
        assert seg.bbox == BoundingBox(0, -1, 2, 3)

    def test_point_at_endpoints(self):
        seg = Segment(Point(1, 1), Point(3, 5))
        assert seg.point_at(0) == Point(1, 1)
        assert seg.point_at(1) == Point(3, 5)
        assert seg.point_at(0.5) == Point(2, 3)

    def test_point_at_extrapolates(self):
        seg = Segment(Point(0, 0), Point(1, 0))
        assert seg.point_at(2) == Point(2, 0)

    @given(segment_st, st.floats(min_value=0, max_value=1))
    def test_point_at_stays_in_bbox(self, seg, s):
        box = seg.bbox.expanded(1e-9 * (1 + seg.length))
        assert box.contains_point(seg.point_at(s))


class TestParameterAndDistance:
    def test_parameter_of_midpoint(self):
        seg = Segment(Point(0, 0), Point(2, 0))
        assert seg.parameter_of(Point(1, 0)) == pytest.approx(0.5)

    def test_parameter_of_projects(self):
        seg = Segment(Point(0, 0), Point(2, 0))
        assert seg.parameter_of(Point(1, 5)) == pytest.approx(0.5)

    def test_parameter_of_degenerate_raises(self):
        with pytest.raises(GeometryError):
            Segment(Point(0, 0), Point(0, 0)).parameter_of(Point(1, 1))

    def test_distance_interior_projection(self):
        seg = Segment(Point(0, 0), Point(2, 0))
        assert seg.distance_to_point(Point(1, 3)) == pytest.approx(3)

    def test_distance_clamped_to_endpoint(self):
        seg = Segment(Point(0, 0), Point(2, 0))
        assert seg.distance_to_point(Point(5, 4)) == pytest.approx(5)

    def test_distance_degenerate(self):
        seg = Segment(Point(1, 1), Point(1, 1))
        assert seg.distance_to_point(Point(4, 5)) == pytest.approx(5)

    def test_contains_point(self):
        seg = Segment(Point(0, 0), Point(2, 2))
        assert seg.contains_point(Point(1, 1))
        assert seg.contains_point(Point(0, 0))
        assert not seg.contains_point(Point(3, 3))
        assert not seg.contains_point(Point(1, 1.5))

    @given(segment_st, point_st)
    def test_distance_nonnegative_and_zero_on_segment(self, seg, p):
        d = seg.distance_to_point(p)
        assert d >= 0
        if seg.contains_point(p):
            assert d == pytest.approx(0, abs=1e-6)


class TestIntersection:
    def test_cross_intersection_point(self):
        a = Segment(Point(0, 0), Point(2, 2))
        b = Segment(Point(0, 2), Point(2, 0))
        hit = a.intersection(b)
        assert isinstance(hit, Point)
        assert hit.x == pytest.approx(1)
        assert hit.y == pytest.approx(1)

    def test_disjoint_returns_none(self):
        a = Segment(Point(0, 0), Point(1, 0))
        b = Segment(Point(0, 1), Point(1, 1))
        assert a.intersection(b) is None

    def test_shared_endpoint_returns_point(self):
        a = Segment(Point(0, 0), Point(1, 1))
        b = Segment(Point(1, 1), Point(2, 0))
        hit = a.intersection(b)
        assert hit == Point(1, 1)

    def test_collinear_overlap_returns_segment(self):
        a = Segment(Point(0, 0), Point(3, 0))
        b = Segment(Point(1, 0), Point(5, 0))
        hit = a.intersection(b)
        assert isinstance(hit, Segment)
        assert {hit.start, hit.end} == {Point(1, 0), Point(3, 0)}

    def test_collinear_touching_at_point(self):
        a = Segment(Point(0, 0), Point(1, 0))
        b = Segment(Point(1, 0), Point(2, 0))
        hit = a.intersection(b)
        assert hit == Point(1, 0)

    def test_overlap_of_noncollinear_is_none(self):
        a = Segment(Point(0, 0), Point(1, 1))
        b = Segment(Point(0, 0), Point(1, 0))
        assert a.overlap(b) is None

    def test_intersection_parameters_match_point(self):
        a = Segment(Point(0, 0), Point(4, 0))
        b = Segment(Point(1, -1), Point(1, 1))
        params = a.intersection_parameters(b)
        assert params is not None
        assert float(params[0]) == pytest.approx(0.25)
        assert float(params[1]) == pytest.approx(0.5)

    @given(segment_st, segment_st)
    def test_intersects_agrees_with_intersection(self, a, b):
        hit = a.intersection(b)
        if hit is not None:
            assert a.intersects(b)


class TestClipping:
    BOX = BoundingBox(0, 0, 10, 10)

    def test_fully_inside(self):
        seg = Segment(Point(1, 1), Point(9, 9))
        assert seg.clipped_to_box(self.BOX) == seg

    def test_fully_outside(self):
        seg = Segment(Point(20, 20), Point(30, 30))
        assert seg.clipped_to_box(self.BOX) is None

    def test_crossing_through(self):
        seg = Segment(Point(-5, 5), Point(15, 5))
        clipped = seg.clipped_to_box(self.BOX)
        assert clipped is not None
        assert clipped.start.x == pytest.approx(0)
        assert clipped.end.x == pytest.approx(10)
        assert clipped.start.y == pytest.approx(5)

    def test_one_end_inside(self):
        seg = Segment(Point(5, 5), Point(5, 20))
        clipped = seg.clipped_to_box(self.BOX)
        assert clipped is not None
        assert clipped.start == Point(5, 5)
        assert clipped.end.y == pytest.approx(10)

    def test_touching_corner_only_returns_none(self):
        seg = Segment(Point(-1, 1), Point(1, -1))  # passes through (0,0)
        assert seg.clipped_to_box(self.BOX) is None

    def test_outside_parallel_returns_none(self):
        seg = Segment(Point(-5, -1), Point(15, -1))
        assert seg.clipped_to_box(self.BOX) is None

    @given(segment_st)
    def test_clipped_is_within_box(self, seg):
        clipped = seg.clipped_to_box(self.BOX)
        if clipped is None:
            return
        tol = 1e-9 * (1 + seg.length)
        grown = self.BOX.expanded(tol)
        assert grown.contains_point(clipped.start)
        assert grown.contains_point(clipped.end)
        assert clipped.length <= seg.length + tol
