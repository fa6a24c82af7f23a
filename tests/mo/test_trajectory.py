"""Tests for trajectory samples, LIT and functional trajectories."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import TrajectoryError
from repro.geometry import Point
from repro.mo import (
    FunctionalTrajectory,
    LinearInterpolationTrajectory,
    TrajectorySample,
)


def straight_sample() -> TrajectorySample:
    return TrajectorySample([(0, 0.0, 0.0), (10, 10.0, 0.0)])


def l_sample() -> TrajectorySample:
    return TrajectorySample([(0, 0.0, 0.0), (4, 4.0, 0.0), (7, 4.0, 3.0)])


class TestTrajectorySample:
    def test_needs_points(self):
        with pytest.raises(TrajectoryError):
            TrajectorySample([])

    def test_strictly_increasing_times(self):
        with pytest.raises(TrajectoryError):
            TrajectorySample([(0, 0, 0), (0, 1, 1)])
        with pytest.raises(TrajectoryError):
            TrajectorySample([(1, 0, 0), (0, 1, 1)])

    def test_basic_properties(self):
        sample = l_sample()
        assert len(sample) == 3
        assert sample.times == [0, 4, 7]
        assert sample.start_time == 0
        assert sample.end_time == 7
        assert sample.duration == 7
        assert sample.positions[1] == Point(4, 0)

    def test_is_closed(self):
        open_sample = l_sample()
        assert not open_sample.is_closed
        closed = TrajectorySample([(0, 1, 1), (1, 2, 2), (2, 1, 1)])
        assert closed.is_closed

    def test_bbox(self):
        box = l_sample().bbox()
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (0, 0, 4, 3)

    def test_restricted(self):
        sub = l_sample().restricted(1, 7)
        assert sub.times == [4, 7]

    def test_restricted_empty_raises(self):
        with pytest.raises(TrajectoryError):
            l_sample().restricted(100, 200)

    def test_indexing(self):
        assert l_sample()[0] == (0.0, 0.0, 0.0)


class TestLIT:
    def test_needs_two_points(self):
        with pytest.raises(TrajectoryError):
            LinearInterpolationTrajectory(TrajectorySample([(0, 0, 0)]))

    def test_position_at_samples(self):
        lit = LinearInterpolationTrajectory(l_sample())
        assert lit.position(0) == Point(0, 0)
        assert lit.position(4) == Point(4, 0)
        assert lit.position(7) == Point(4, 3)

    def test_position_interpolated(self):
        lit = LinearInterpolationTrajectory(straight_sample())
        assert lit.position(5) == Point(5, 0)
        p = lit.position(2.5)
        assert p.x == pytest.approx(2.5)

    def test_position_outside_domain_raises(self):
        lit = LinearInterpolationTrajectory(straight_sample())
        with pytest.raises(TrajectoryError):
            lit.position(-1)
        with pytest.raises(TrajectoryError):
            lit.position(11)

    def test_paper_interpolation_formula(self):
        # x = ((t1-t) x0 + (t-t0) x1) / (t1 - t0) from Section 3.
        lit = LinearInterpolationTrajectory(
            TrajectorySample([(2, 1.0, 5.0), (6, 9.0, 1.0)])
        )
        t = 3.0
        expected_x = ((6 - t) * 1.0 + (t - 2) * 9.0) / 4
        expected_y = ((6 - t) * 5.0 + (t - 2) * 1.0) / 4
        p = lit.position(t)
        assert p.x == pytest.approx(expected_x)
        assert p.y == pytest.approx(expected_y)

    def test_pieces(self):
        lit = LinearInterpolationTrajectory(l_sample())
        pieces = lit.pieces()
        assert len(pieces) == 2
        t0, t1, seg = pieces[0]
        assert (t0, t1) == (0, 4)
        assert seg.start == Point(0, 0)
        assert seg.end == Point(4, 0)

    def test_length(self):
        assert LinearInterpolationTrajectory(l_sample()).length == pytest.approx(7)

    def test_speed_constant_per_piece(self):
        lit = LinearInterpolationTrajectory(l_sample())
        assert lit.speed_on_piece(0) == pytest.approx(1.0)
        assert lit.speed_on_piece(1) == pytest.approx(1.0)

    def test_speed_piece_out_of_range(self):
        lit = LinearInterpolationTrajectory(l_sample())
        with pytest.raises(TrajectoryError):
            lit.speed_on_piece(5)

    def test_is_closed(self):
        closed = LinearInterpolationTrajectory(
            TrajectorySample([(0, 0, 0), (1, 1, 0), (2, 0, 0)])
        )
        assert closed.is_closed
        assert not LinearInterpolationTrajectory(l_sample()).is_closed

    def test_image_polyline(self):
        lit = LinearInterpolationTrajectory(straight_sample())
        image = lit.image_polyline(5)
        assert len(image) == 5
        assert image.vertices[0] == Point(0, 0)
        assert image.vertices[-1] == Point(10, 0)

    @given(st.floats(min_value=0, max_value=10))
    def test_position_within_sample_bbox(self, t):
        lit = LinearInterpolationTrajectory(straight_sample())
        p = lit.position(t)
        assert lit.sample.bbox().expanded(1e-9).contains_point(p)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-100, max_value=100),
                st.floats(min_value=-100, max_value=100),
            ),
            min_size=2,
            max_size=10,
        )
    )
    def test_lit_passes_through_samples(self, positions):
        sample = TrajectorySample(
            [(i, x, y) for i, (x, y) in enumerate(positions)]
        )
        lit = LinearInterpolationTrajectory(sample)
        for t, x, y in sample:
            p = lit.position(t)
            assert p.x == pytest.approx(x, abs=1e-9)
            assert p.y == pytest.approx(y, abs=1e-9)


class TestFunctionalTrajectory:
    def test_domain_validation(self):
        with pytest.raises(TrajectoryError):
            FunctionalTrajectory(lambda t: t, lambda t: t, (1, 1))

    def test_quarter_circle_matches_paper(self):
        traj = FunctionalTrajectory.quarter_circle()
        p0 = traj.position(0)
        p1 = traj.position(1)
        assert (p0.x, p0.y) == (1.0, 0.0)
        assert (p1.x, p1.y) == (0.0, 1.0)
        # Every point lies on the unit circle.
        for i in range(11):
            p = traj.position(i / 10)
            assert p.x**2 + p.y**2 == pytest.approx(1.0)

    def test_sampled(self):
        traj = FunctionalTrajectory.quarter_circle()
        sample = traj.sampled([0, 0.5, 1])
        assert len(sample) == 3
        with pytest.raises(TrajectoryError):
            traj.sampled([0, 2.0])

    def test_linearized_approaches_arc_length(self):
        traj = FunctionalTrajectory.quarter_circle()
        coarse = traj.linearized(4).length
        fine = traj.linearized(256).length
        quarter = math.pi / 2
        assert coarse < fine <= quarter + 1e-9
        assert fine == pytest.approx(quarter, rel=1e-3)

    def test_linearized_validation(self):
        with pytest.raises(TrajectoryError):
            FunctionalTrajectory.quarter_circle().linearized(0)

    def test_image_polyline_validation(self):
        with pytest.raises(TrajectoryError):
            FunctionalTrajectory.quarter_circle().image_polyline(1)
