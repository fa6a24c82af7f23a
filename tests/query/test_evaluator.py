"""Tests for the Section 5 evaluation pipeline."""

import pytest

from repro.errors import EvaluationError
from repro.geometry import Point, Polygon, Polyline
from repro.mo import MOFT
from repro.query import (
    EvaluationStats,
    TrajectoryIntersectionCounter,
    count_objects_through,
    geometric_subquery,
)
from repro.synth.paperdata import figure1_instance


@pytest.fixture(scope="module")
def world():
    return figure1_instance()


class TestTrajectoryIntersectionCounter:
    def squares(self):
        return {
            "a": Polygon.rectangle(0, 0, 10, 10),
            "b": Polygon.rectangle(100, 100, 110, 110),
        }

    def moft(self) -> MOFT:
        moft = MOFT()
        moft.add_many(
            [
                ("inside", 0, 5.0, 5.0),
                ("inside", 1, 6.0, 6.0),
                ("crossing", 0, -5.0, 5.0),
                ("crossing", 1, 15.0, 5.0),
                ("outside", 0, 50.0, 50.0),
                ("outside", 1, 60.0, 60.0),
                ("single-hit", 0, 3.0, 3.0),
                ("single-miss", 0, 55.0, 3.0),
            ]
        )
        return moft

    def test_requires_geometries(self):
        with pytest.raises(EvaluationError):
            TrajectoryIntersectionCounter({})

    def test_matching_objects(self):
        counter = TrajectoryIntersectionCounter(self.squares())
        matched = counter.matching_objects(self.moft())
        assert matched == {"inside", "crossing", "single-hit"}

    def test_count(self):
        counter = TrajectoryIntersectionCounter(self.squares())
        assert counter.count(self.moft()) == 3

    def test_all_strategy_combinations_agree(self):
        expected = {"inside", "crossing", "single-hit"}
        for strategy in ("serial", "grid"):
            counter = TrajectoryIntersectionCounter(self.squares(), strategy)
            assert counter.matching_objects(self.moft()) == expected

    def test_stats_populated(self):
        stats = EvaluationStats()
        counter = TrajectoryIntersectionCounter(self.squares(), "serial")
        counter.matching_objects(self.moft(), stats)
        assert stats.count("objects_scanned") == 5
        assert stats.count("objects_matched") == 3
        assert stats.count("segment_checks") > 0
        assert stats.seconds(EvaluationStats.SCAN_STAGE) >= 0
        assert stats.count("scan_rows") == len(self.moft())
        assert set(stats.as_dict()) == {
            "segment_checks",
            "bbox_rejections",
            "objects_scanned",
            "objects_matched",
            "scan_rows",
            "segment_scan_seconds",
            "segment_scan_calls",
        }

    def test_early_exit_fewer_checks(self):
        moft = MOFT()
        # Long trajectory inside the polygon: early exit stops at piece 1
        # of the 49 a visit of every piece would check.
        for i in range(50):
            moft.add("runner", i, 1.0 + 0.1 * i, 1.0)
        walk = EvaluationStats()
        TrajectoryIntersectionCounter(
            self.squares(), "serial"
        ).matching_objects(moft, walk)
        assert walk.count("segment_checks") == 1 < len(moft) - 1
        # The prefilter proves it by its first sample: no piece at all.
        proved = EvaluationStats()
        TrajectoryIntersectionCounter(
            self.squares(), "grid"
        ).matching_objects(moft, proved)
        assert proved.count("segment_checks") == 0


class TestGeometricSubquery:
    def test_cities_crossed_by_river(self, world):
        ctx = world.context()
        ids = geometric_subquery(
            ctx,
            ("Ln", "polygon"),
            [("intersects", ("Lr", "polyline"))],
        )
        # The river along y=10 touches all four neighborhoods.
        assert ids == {"pg_zuid", "pg_berchem", "pg_centrum", "pg_noord"}

    def test_conjunctive_constraints(self, world):
        ctx = world.context()
        ids = geometric_subquery(
            ctx,
            ("Ln", "polygon"),
            [
                ("intersects", ("Lr", "polyline")),
                ("contains", ("Ls", "node")),
            ],
        )
        # Only zuid and noord contain a school node.
        assert ids == {"pg_zuid", "pg_noord"}

    def test_no_constraints_returns_all(self, world):
        ctx = world.context()
        ids = geometric_subquery(ctx, ("Ls", "node"), [])
        assert ids == {"nd_school_south", "nd_school_north"}

    def test_unsatisfiable_returns_empty(self, world):
        ctx = world.context()
        ids = geometric_subquery(
            ctx,
            ("Ls", "node"),
            [("contains", ("Ln", "polygon"))],  # nodes contain no polygons
        )
        assert ids == set()

    def test_overlay_and_naive_agree(self, world):
        constraints = [
            ("intersects", ("Lr", "polyline")),
            ("contains", ("Ls", "node")),
        ]
        overlay_ids = geometric_subquery(
            world.context(use_overlay=True), ("Ln", "polygon"), constraints
        )
        naive_ids = geometric_subquery(
            world.context(use_overlay=False), ("Ln", "polygon"), constraints
        )
        assert overlay_ids == naive_ids


class TestFullPipeline:
    def test_count_objects_through(self, world):
        """Section 5's example: objects through cities crossed by a river
        containing at least one store (here: a school)."""
        ctx = world.context()
        count = count_objects_through(
            ctx,
            ("Ln", "polygon"),
            [
                ("intersects", ("Lr", "polyline")),
                ("contains", ("Ls", "node")),
            ],
            moft_name="FMbus",
        )
        # Qualifying: zuid and noord.  O1, O2 touch zuid; O3, O5, O6 in
        # noord; O4 stays in centrum.
        assert count == 5

    def test_empty_geometric_answer_counts_zero(self, world):
        ctx = world.context()
        count = count_objects_through(
            ctx,
            ("Ls", "node"),
            [("contains", ("Ln", "polygon"))],
            moft_name="FMbus",
        )
        assert count == 0

    def test_stats_flow_through(self, world):
        ctx = world.context()
        stats = EvaluationStats()
        count_objects_through(
            ctx,
            ("Ln", "polygon"),
            [("intersects", ("Lr", "polyline"))],
            moft_name="FMbus",
            stats=stats,
        )
        assert stats.count("objects_scanned") == 6
