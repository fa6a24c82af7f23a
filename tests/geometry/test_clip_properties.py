"""Property tests for polygon segment clipping (the trajectory workhorse)."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.geometry import Point, Polygon, Segment

coords = st.floats(min_value=-30, max_value=30, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)
segments = st.builds(Segment, points, points)

polygons = st.one_of(
    st.builds(
        lambda x0, y0, w, h: Polygon.rectangle(x0, y0, x0 + w, y0 + h),
        st.floats(min_value=-20, max_value=10),
        st.floats(min_value=-20, max_value=10),
        st.floats(min_value=1, max_value=15),
        st.floats(min_value=1, max_value=15),
    ),
    st.builds(
        Polygon.regular,
        points,
        st.floats(min_value=1, max_value=10),
        st.integers(min_value=3, max_value=8),
    ),
)


class TestClipProperties:
    @given(polygons, segments)
    def test_intervals_well_formed(self, polygon, segment):
        intervals = polygon.clip_segment(segment)
        for lo, hi in intervals:
            assert -1e-9 <= lo <= hi <= 1 + 1e-9
        for (a0, a1), (b0, b1) in zip(intervals, intervals[1:]):
            assert a1 <= b0 + 1e-9  # sorted and disjoint

    @given(polygons, segments)
    def test_clipped_length_bounded(self, polygon, segment):
        inside = polygon.clipped_segment_length(segment)
        assert -1e-9 <= inside <= segment.length + 1e-6

    @given(polygons, segments, st.floats(min_value=0, max_value=1))
    @settings(max_examples=60)
    def test_interval_midpoints_inside(self, polygon, segment, u):
        assume(not segment.is_degenerate)
        intervals = polygon.clip_segment(segment)
        for lo, hi in intervals:
            if hi - lo < 1e-6:
                continue
            s = lo + u * (hi - lo)
            # Allow boundary tolerance: clip cuts are computed in floats.
            point = segment.point_at(s)
            near = polygon.contains_point(point) or any(
                edge.distance_to_point(point) < 1e-6
                for edge in polygon.boundary_segments()
            )
            assert near

    @given(polygons, segments)
    def test_gap_midpoints_outside(self, polygon, segment):
        assume(not segment.is_degenerate)
        intervals = polygon.clip_segment(segment)
        cuts = [0.0]
        for lo, hi in intervals:
            cuts.extend([lo, hi])
        cuts.append(1.0)
        # Midpoints of the complement gaps must be outside (or on boundary).
        for a, b in zip(cuts[::2], cuts[1::2]):
            if b - a < 1e-6:
                continue
            point = segment.point_at((a + b) / 2)
            outside = not polygon.contains_point(point) or any(
                edge.distance_to_point(point) < 1e-6
                for edge in polygon.boundary_segments()
            )
            assert outside

    def test_segment_below_denormal_bottom_edge_not_swallowed(self):
        """Regression (hypothesis-found): a segment sliding just *outside*
        a nearly-degenerate bottom edge must not clip to the whole span."""
        tiny = 6.573433594977706e-183
        polygon = Polygon.rectangle(0.0, tiny, 2.0, 1.0)
        segment = Segment(Point(3.0, 0.0), Point(0.0, tiny))
        for lo, hi in polygon.clip_segment(segment):
            point = segment.point_at((lo + hi) / 2)
            assert polygon.contains_point(point) or any(
                edge.distance_to_point(point) < 1e-6
                for edge in polygon.boundary_segments()
            )
            # The start (3, 0) is a unit away from the region; no interval
            # may begin there.
            assert lo >= 1 / 3 - 1e-9

    @given(polygons, segments)
    def test_reversed_segment_symmetric_length(self, polygon, segment):
        forward = polygon.clipped_segment_length(segment)
        backward = polygon.clipped_segment_length(
            Segment(segment.end, segment.start)
        )
        assert forward == pytest.approx(backward, abs=1e-6)

    @given(polygons)
    def test_boundary_edge_fully_inside(self, polygon):
        edge = polygon.boundary_segments()[0]
        assume(not edge.is_degenerate)
        assert polygon.clipped_segment_length(edge) == pytest.approx(
            edge.length, rel=1e-6
        )
