"""Tests for convex hull, triangulation, clipping and intersection areas."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError
from repro.geometry import (
    Point,
    Polygon,
    Segment,
    convex_hull,
    is_convex,
    polygon_intersection_area,
    polyline_length_inside,
    triangulate,
)
from repro.geometry.algorithms import clip_ring_convex, triangle_area

coords = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)
point_st = st.builds(Point, coords, coords)


class TestConvexHull:
    def test_square_with_interior_point(self):
        pts = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2), Point(1, 1)]
        hull = convex_hull(pts)
        assert len(hull) == 4
        assert Point(1, 1) not in hull

    def test_collinear_raises(self):
        with pytest.raises(GeometryError):
            convex_hull([Point(0, 0), Point(1, 1), Point(2, 2)])

    def test_too_few_raises(self):
        with pytest.raises(GeometryError):
            convex_hull([Point(0, 0), Point(1, 1)])

    def test_collinear_boundary_points_dropped(self):
        pts = [Point(0, 0), Point(1, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
        hull = convex_hull(pts)
        assert Point(1, 0) not in hull

    # Integer lattice points keep the containment check itself exact; float
    # ray casting cannot decide points subnormally close to the boundary.
    @given(
        st.lists(
            st.builds(
                Point,
                st.integers(min_value=-100, max_value=100).map(float),
                st.integers(min_value=-100, max_value=100).map(float),
            ),
            min_size=3,
            max_size=30,
            unique=True,
        )
    )
    def test_hull_is_convex_and_contains_points(self, pts):
        try:
            hull = convex_hull(pts)
        except GeometryError:
            return  # collinear input
        poly = Polygon(hull)
        assert is_convex(poly)
        for p in pts:
            assert poly.contains_point(p)


class TestConvexity:
    def test_square_is_convex(self):
        assert is_convex(Polygon.rectangle(0, 0, 1, 1))

    def test_l_shape_is_not(self):
        l_poly = Polygon(
            [
                Point(0, 0),
                Point(2, 0),
                Point(2, 1),
                Point(1, 1),
                Point(1, 2),
                Point(0, 2),
            ]
        )
        assert not is_convex(l_poly)

    def test_holes_not_convex(self):
        poly = Polygon(
            [Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)],
            holes=[[Point(4, 4), Point(6, 4), Point(6, 6), Point(4, 6)]],
        )
        assert not is_convex(poly)


class TestTriangulation:
    def test_square_two_triangles(self):
        tris = triangulate(Polygon.rectangle(0, 0, 1, 1))
        assert len(tris) == 2
        assert sum(triangle_area(*t) for t in tris) == pytest.approx(1)

    def test_concave_polygon(self):
        l_poly = Polygon(
            [
                Point(0, 0),
                Point(2, 0),
                Point(2, 1),
                Point(1, 1),
                Point(1, 2),
                Point(0, 2),
            ]
        )
        tris = triangulate(l_poly)
        assert len(tris) == 4
        assert sum(triangle_area(*t) for t in tris) == pytest.approx(3)

    def test_clockwise_input_handled(self):
        cw = Polygon([Point(0, 0), Point(0, 1), Point(1, 1), Point(1, 0)])
        tris = triangulate(cw)
        assert sum(triangle_area(*t) for t in tris) == pytest.approx(1)

    def test_holes_rejected(self):
        poly = Polygon(
            [Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)],
            holes=[[Point(4, 4), Point(6, 4), Point(6, 6), Point(4, 6)]],
        )
        with pytest.raises(GeometryError):
            triangulate(poly)

    @settings(max_examples=25)
    @given(st.integers(min_value=3, max_value=12), st.floats(min_value=0.5, max_value=10))
    def test_regular_polygon_area_preserved(self, sides, radius):
        poly = Polygon.regular(Point(0, 0), radius, sides)
        tris = triangulate(poly)
        assert len(tris) == sides - 2
        assert sum(triangle_area(*t) for t in tris) == pytest.approx(
            poly.area, rel=1e-9
        )


class TestClipping:
    def test_clip_triangle_to_square(self):
        tri = [Point(-1, 0), Point(1, 0), Point(0, 2)]
        square = Polygon.rectangle(0, 0, 2, 2)
        clipped = clip_ring_convex(tri, square)
        poly = Polygon(clipped)
        # Clipping keeps the sub-triangle (0,0), (1,0), (0,2) of area 1.
        assert poly.area == pytest.approx(1.0)

    def test_clip_fully_inside(self):
        tri = [Point(0.1, 0.1), Point(0.5, 0.1), Point(0.3, 0.5)]
        square = Polygon.rectangle(0, 0, 1, 1)
        clipped = clip_ring_convex(tri, square)
        assert Polygon(clipped).area == pytest.approx(
            Polygon(tri).area
        )

    def test_clip_fully_outside(self):
        tri = [Point(5, 5), Point(6, 5), Point(5, 6)]
        square = Polygon.rectangle(0, 0, 1, 1)
        assert clip_ring_convex(tri, square) == []

    def test_concave_clip_rejected(self):
        l_poly = Polygon(
            [
                Point(0, 0),
                Point(2, 0),
                Point(2, 1),
                Point(1, 1),
                Point(1, 2),
                Point(0, 2),
            ]
        )
        with pytest.raises(GeometryError):
            clip_ring_convex([Point(0, 0), Point(1, 0), Point(0, 1)], l_poly)


class TestIntersectionArea:
    def test_overlapping_squares(self):
        a = Polygon.rectangle(0, 0, 2, 2)
        b = Polygon.rectangle(1, 1, 3, 3)
        assert polygon_intersection_area(a, b) == pytest.approx(1)

    def test_disjoint(self):
        a = Polygon.rectangle(0, 0, 1, 1)
        b = Polygon.rectangle(5, 5, 6, 6)
        assert polygon_intersection_area(a, b) == 0.0

    def test_contained(self):
        outer = Polygon.rectangle(0, 0, 10, 10)
        inner = Polygon.rectangle(2, 2, 4, 4)
        assert polygon_intersection_area(outer, inner) == pytest.approx(4)

    def test_concave_subject_convex_clip(self):
        l_poly = Polygon(
            [
                Point(0, 0),
                Point(2, 0),
                Point(2, 1),
                Point(1, 1),
                Point(1, 2),
                Point(0, 2),
            ]
        )
        clip = Polygon.rectangle(0, 0, 2, 2)
        assert polygon_intersection_area(l_poly, clip) == pytest.approx(3)

    def test_grid_fallback_for_two_concave(self):
        l1 = Polygon(
            [
                Point(0, 0),
                Point(2, 0),
                Point(2, 1),
                Point(1, 1),
                Point(1, 2),
                Point(0, 2),
            ]
        )
        l2 = Polygon(
            [
                Point(0, 0),
                Point(2, 0),
                Point(2, 2),
                Point(1, 2),
                Point(1, 1),
                Point(0, 1),
            ]
        )
        area = polygon_intersection_area(l1, l2, resolution=200)
        # True intersection is the two unit squares [0,1]^2 and [1,2]x[0,1].
        assert area == pytest.approx(2.0, rel=0.05)

    def test_symmetry(self):
        a = Polygon.rectangle(0, 0, 3, 1)
        b = Polygon.regular(Point(1, 0.5), 1.0, 8)
        ab = polygon_intersection_area(a, b)
        ba = polygon_intersection_area(b, a)
        assert ab == pytest.approx(ba, rel=1e-6)


class TestLengthInside:
    def test_half_inside(self):
        square = Polygon.rectangle(0, 0, 1, 1)
        segs = [Segment(Point(0.5, 0.5), Point(0.5, 1.5))]
        assert polyline_length_inside(square, segs) == pytest.approx(0.5)

    def test_multiple_segments(self):
        square = Polygon.rectangle(0, 0, 10, 10)
        segs = [
            Segment(Point(1, 1), Point(4, 1)),  # 3 inside
            Segment(Point(8, 8), Point(14, 8)),  # 2 inside
            Segment(Point(20, 20), Point(30, 20)),  # 0 inside
        ]
        assert polyline_length_inside(square, segs) == pytest.approx(5)
