"""Tests for Polygon: measures, containment, clipping."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import GeometryError
from repro.geometry import Point, Polygon, Polyline, Segment


def unit_square() -> Polygon:
    return Polygon.rectangle(0, 0, 1, 1)


def square_with_hole() -> Polygon:
    return Polygon(
        [Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)],
        holes=[[Point(4, 4), Point(6, 4), Point(6, 6), Point(4, 6)]],
    )


def concave_l() -> Polygon:
    """An L-shaped (concave) hexagon of area 3."""
    return Polygon(
        [
            Point(0, 0),
            Point(2, 0),
            Point(2, 1),
            Point(1, 1),
            Point(1, 2),
            Point(0, 2),
        ]
    )


class TestConstruction:
    def test_needs_three_vertices(self):
        with pytest.raises(GeometryError):
            Polygon([Point(0, 0), Point(1, 1)])

    def test_closing_vertex_dropped(self):
        ring = [Point(0, 0), Point(1, 0), Point(0, 1), Point(0, 0)]
        assert len(Polygon(ring).shell) == 3

    def test_rectangle_validation(self):
        with pytest.raises(GeometryError):
            Polygon.rectangle(1, 0, 0, 1)

    def test_regular_polygon(self):
        hexagon = Polygon.regular(Point(0, 0), 1.0, 6)
        assert len(hexagon.shell) == 6
        assert hexagon.area == pytest.approx(3 * math.sqrt(3) / 2, rel=1e-9)

    def test_regular_validation(self):
        with pytest.raises(GeometryError):
            Polygon.regular(Point(0, 0), 1.0, 2)
        with pytest.raises(GeometryError):
            Polygon.regular(Point(0, 0), 0.0, 5)


class TestMeasures:
    def test_square_area(self):
        assert unit_square().area == pytest.approx(1)

    def test_signed_area_ccw_positive(self):
        assert unit_square().signed_area > 0

    def test_signed_area_cw_negative(self):
        cw = Polygon([Point(0, 0), Point(0, 1), Point(1, 1), Point(1, 0)])
        assert cw.signed_area < 0
        assert cw.area == pytest.approx(1)

    def test_area_with_hole(self):
        assert square_with_hole().area == pytest.approx(100 - 4)

    def test_concave_area(self):
        assert concave_l().area == pytest.approx(3)

    def test_centroid_of_square(self):
        c = unit_square().centroid
        assert c.x == pytest.approx(0.5)
        assert c.y == pytest.approx(0.5)

    def test_centroid_symmetric_hole(self):
        c = square_with_hole().centroid
        assert c.x == pytest.approx(5)
        assert c.y == pytest.approx(5)

    def test_bbox(self):
        box = concave_l().bbox
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (0, 0, 2, 2)


class TestContainment:
    def test_interior_point(self):
        assert unit_square().contains_point(Point(0.5, 0.5))

    def test_boundary_point_included(self):
        assert unit_square().contains_point(Point(0, 0.5))
        assert unit_square().contains_point(Point(1, 1))

    def test_outside_point(self):
        assert not unit_square().contains_point(Point(1.5, 0.5))

    def test_hole_interior_excluded(self):
        assert not square_with_hole().contains_point(Point(5, 5))

    def test_hole_boundary_included(self):
        assert square_with_hole().contains_point(Point(4, 5))

    def test_concave_notch_excluded(self):
        assert not concave_l().contains_point(Point(1.5, 1.5))
        assert concave_l().contains_point(Point(0.5, 1.5))

    def test_shared_boundary_belongs_to_both(self):
        # The paper: "a point may belong to more than one geometry", e.g.
        # on the shared edge of two adjacent polygons.
        left = Polygon.rectangle(0, 0, 1, 1)
        right = Polygon.rectangle(1, 0, 2, 1)
        edge_point = Point(1, 0.5)
        assert left.contains_point(edge_point)
        assert right.contains_point(edge_point)

    def test_ray_through_vertex(self):
        diamond = Polygon([Point(0, -1), Point(1, 0), Point(0, 1), Point(-1, 0)])
        assert diamond.contains_point(Point(0, 0))
        assert not diamond.contains_point(Point(-2, 0.0))

    @given(
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=-2, max_value=2),
    )
    def test_square_containment_matches_coordinates(self, x, y):
        inside = unit_square().contains_point(Point(x, y))
        assert inside == (0 <= x <= 1 and 0 <= y <= 1)


class TestSegmentPolygonRelations:
    def test_intersects_crossing_segment(self):
        assert unit_square().intersects_segment(
            Segment(Point(-1, 0.5), Point(2, 0.5))
        )

    def test_intersects_contained_segment(self):
        assert unit_square().intersects_segment(
            Segment(Point(0.2, 0.2), Point(0.8, 0.8))
        )

    def test_disjoint_segment(self):
        assert not unit_square().intersects_segment(
            Segment(Point(2, 2), Point(3, 3))
        )

    def test_intersects_polyline(self):
        line = Polyline([Point(-1, -1), Point(0.5, 0.5), Point(2, 2)])
        assert unit_square().intersects_polyline(line)

    def test_polygon_intersects_polygon_overlap(self):
        a = Polygon.rectangle(0, 0, 2, 2)
        b = Polygon.rectangle(1, 1, 3, 3)
        assert a.intersects_polygon(b)

    def test_polygon_intersects_polygon_containment(self):
        outer = Polygon.rectangle(0, 0, 10, 10)
        inner = Polygon.rectangle(4, 4, 6, 6)
        assert outer.intersects_polygon(inner)
        assert inner.intersects_polygon(outer)

    def test_polygon_disjoint(self):
        a = Polygon.rectangle(0, 0, 1, 1)
        b = Polygon.rectangle(5, 5, 6, 6)
        assert not a.intersects_polygon(b)

    def test_contains_polygon(self):
        outer = Polygon.rectangle(0, 0, 10, 10)
        inner = Polygon.rectangle(1, 1, 2, 2)
        assert outer.contains_polygon(inner)
        assert not inner.contains_polygon(outer)

    def test_contains_polygon_rejects_overlap(self):
        a = Polygon.rectangle(0, 0, 2, 2)
        b = Polygon.rectangle(1, 1, 3, 3)
        assert not a.contains_polygon(b)


class TestClipSegment:
    def test_through_crossing(self):
        intervals = unit_square().clip_segment(
            Segment(Point(-1, 0.5), Point(2, 0.5))
        )
        assert len(intervals) == 1
        s0, s1 = intervals[0]
        assert s0 == pytest.approx(1 / 3)
        assert s1 == pytest.approx(2 / 3)

    def test_fully_inside(self):
        intervals = unit_square().clip_segment(
            Segment(Point(0.2, 0.2), Point(0.8, 0.8))
        )
        assert intervals == [(0.0, 1.0)]

    def test_fully_outside(self):
        assert unit_square().clip_segment(Segment(Point(2, 2), Point(3, 3))) == []

    def test_degenerate_inside(self):
        seg = Segment(Point(0.5, 0.5), Point(0.5, 0.5))
        assert unit_square().clip_segment(seg) == [(0.0, 1.0)]

    def test_degenerate_outside(self):
        seg = Segment(Point(5, 5), Point(5, 5))
        assert unit_square().clip_segment(seg) == []

    def test_hole_splits_interval(self):
        poly = square_with_hole()
        seg = Segment(Point(0, 5), Point(10, 5))
        intervals = poly.clip_segment(seg)
        assert len(intervals) == 2
        (a0, a1), (b0, b1) = intervals
        assert a0 == pytest.approx(0.0)
        assert a1 == pytest.approx(0.4)
        assert b0 == pytest.approx(0.6)
        assert b1 == pytest.approx(1.0)

    def test_concave_double_crossing(self):
        poly = concave_l()
        seg = Segment(Point(0.5, -1), Point(0.5, 3))
        intervals = poly.clip_segment(seg)
        assert len(intervals) == 1
        # Crosses y=0 at s=0.25 and y=2 at s=0.75.
        assert intervals[0][0] == pytest.approx(0.25)
        assert intervals[0][1] == pytest.approx(0.75)

    def test_concave_segment_through_notch(self):
        poly = concave_l()
        seg = Segment(Point(1.5, -1), Point(1.5, 3))
        intervals = poly.clip_segment(seg)
        # Only inside for y in [0, 1] -> s in [0.25, 0.5].
        assert len(intervals) == 1
        assert intervals[0][0] == pytest.approx(0.25)
        assert intervals[0][1] == pytest.approx(0.5)

    def test_clipped_length(self):
        length = unit_square().clipped_segment_length(
            Segment(Point(-1, 0.5), Point(2, 0.5))
        )
        assert length == pytest.approx(1.0)

    def test_boundary_sliding_segment(self):
        # A segment travelling along the boundary is inside (closed region).
        intervals = unit_square().clip_segment(Segment(Point(0, 0), Point(1, 0)))
        assert intervals == [(0.0, 1.0)]


class TestSampling:
    def test_interior_point_of_square(self):
        sq = unit_square()
        p = sq.sample_interior_point()
        assert sq.contains_point(p) and not sq.on_boundary(p)

    def test_interior_point_of_concave(self):
        poly = concave_l()
        p = poly.sample_interior_point()
        assert poly.contains_point(p)

    def test_interior_point_with_central_hole(self):
        poly = square_with_hole()
        p = poly.sample_interior_point()
        assert poly.contains_point(p)
