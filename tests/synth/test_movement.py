"""Tests for the movement simulators."""

import pytest

from repro.errors import SchemaError
from repro.geometry import BoundingBox, Point, Polyline
from repro.synth import (
    adversarial_moft,
    commuter_moft,
    random_waypoint_moft,
    route_following_moft,
)

BOX = BoundingBox(0, 0, 100, 100)


class TestRandomWaypoint:
    def test_shape(self):
        moft = random_waypoint_moft(BOX, n_objects=5, n_instants=10)
        assert len(moft) == 50
        assert len(moft.objects()) == 5
        assert moft.instants() == set(float(t) for t in range(10))

    def test_positions_inside_box(self):
        moft = random_waypoint_moft(BOX, n_objects=5, n_instants=20)
        for row in moft.rows():
            assert BOX.contains_point(Point(row["x"], row["y"]))

    def test_speed_bound_respected(self):
        speed = 3.0
        moft = random_waypoint_moft(BOX, 4, 20, speed=speed, seed=5)
        for oid in moft.objects():
            history = moft.history(oid)
            for (t0, x0, y0), (t1, x1, y1) in zip(history, history[1:]):
                dist = ((x1 - x0) ** 2 + (y1 - y0) ** 2) ** 0.5
                assert dist <= speed * (t1 - t0) + 1e-9

    def test_deterministic(self):
        a = random_waypoint_moft(BOX, 3, 5, seed=9)
        b = random_waypoint_moft(BOX, 3, 5, seed=9)
        assert list(a.tuples()) == list(b.tuples())

    def test_validation(self):
        with pytest.raises(SchemaError):
            random_waypoint_moft(BOX, 0, 10)
        with pytest.raises(SchemaError):
            random_waypoint_moft(BOX, 1, 1)
        with pytest.raises(SchemaError):
            random_waypoint_moft(BOX, 1, 10, speed=0)


class TestRouteFollowing:
    ROUTE = Polyline([Point(0, 50), Point(100, 50)])

    def test_positions_on_route(self):
        moft = route_following_moft([self.ROUTE], 3, 10, speed=7.0)
        for row in moft.rows():
            assert row["y"] == pytest.approx(50.0)
            assert 0 <= row["x"] <= 100

    def test_object_naming_by_route(self):
        routes = [self.ROUTE, Polyline([Point(50, 0), Point(50, 100)])]
        moft = route_following_moft(routes, 2, 5)
        assert len(moft.objects()) == 4
        assert any(oid.startswith("bus0_") for oid in moft.objects())
        assert any(oid.startswith("bus1_") for oid in moft.objects())

    def test_bounce_at_endpoints(self):
        # Speed longer than the route forces reflection.
        short = Polyline([Point(0, 0), Point(10, 0)])
        moft = route_following_moft([short], 1, 50, speed=7.0, seed=1)
        for row in moft.rows():
            assert -1e-9 <= row["x"] <= 10 + 1e-9

    def test_validation(self):
        with pytest.raises(SchemaError):
            route_following_moft([], 1, 10)
        with pytest.raises(SchemaError):
            route_following_moft([self.ROUTE], 1, 10, speed=0)
        degenerate = Polyline([Point(0, 0), Point(0, 0)])
        with pytest.raises(SchemaError):
            route_following_moft([degenerate], 1, 10)


class TestCommuter:
    def test_south_to_north(self):
        moft = commuter_moft(BOX, 10, 10, morning_end=5, seed=2)
        for oid in moft.objects():
            history = moft.history(oid)
            start_y = history[0][2]
            end_y = history[-1][2]
            assert start_y <= BOX.min_y + BOX.height / 3
            assert end_y >= BOX.max_y - BOX.height / 3

    def test_parked_after_morning(self):
        moft = commuter_moft(BOX, 5, 10, morning_end=4, seed=2)
        for oid in moft.objects():
            history = moft.history(oid)
            positions_after = {(x, y) for t, x, y in history if t >= 4}
            assert len(positions_after) == 1

    def test_validation(self):
        with pytest.raises(SchemaError):
            commuter_moft(BOX, 5, 10, morning_end=0)
        with pytest.raises(SchemaError):
            commuter_moft(BOX, 5, 10, morning_end=10)


class TestAdversarial:
    def test_avoids_box(self):
        moft = adversarial_moft(BOX, 5, 10, margin=5.0)
        for row in moft.rows():
            assert row["x"] >= BOX.max_x + 5.0

    def test_validation(self):
        with pytest.raises(SchemaError):
            adversarial_moft(BOX, 5, 10, margin=0)

    def test_full_scan_required(self):
        """Every trajectory is checked to the end without a hit (Section 5's
        worst case)."""
        from repro.geometry import Polygon
        from repro.query import EvaluationStats, TrajectoryIntersectionCounter

        moft = adversarial_moft(BOX, 5, 20)
        counter = TrajectoryIntersectionCounter(
            {"city": Polygon.rectangle(
                BOX.min_x, BOX.min_y, BOX.max_x, BOX.max_y
            )},
            "serial",
        )
        stats = EvaluationStats()
        assert counter.count(moft, stats) == 0
        # 19 segments per object, all visited (rejected by bbox or tested
        # exactly) — no early exit is ever possible.
        visited = stats.count("segment_checks") + stats.count("bbox_rejections")
        assert visited == 5 * 19
