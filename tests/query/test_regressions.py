"""Regression tests for the Section 5 pipeline hot-path fixes.

Each test pins one bug fixed alongside the columnar storage engine:
bbox rejections silently uncounted on the indexed path, the grid index
rebuilt on every query, and the columnar region's oid recovery
materializing the whole table (those cases are inputs of the region
differential of tests/query/test_vectorized.py).
"""

import pytest

from repro.geometry import Point, Polygon
from repro.gis import NODE, POLYGON, POLYLINE
from repro.mo import MOFT
from repro.query import (
    EvaluationStats,
    TrajectoryIntersectionCounter,
    count_objects_through,
    planned_count_objects_through,
)
from repro.synth.paperdata import figure1_instance
from tests.query.test_vectorized import (
    boundary_sample,
    instant_filter,
    lowered_equals_solver,
    tuple_oids,
)

CONSTRAINTS = [
    ("intersects", ("Lr", POLYLINE)),
    ("contains", ("Ls", NODE)),
]


def two_far_polygons():
    return {
        "west": Polygon.rectangle(0, 0, 1, 1),
        "east": Polygon.rectangle(100, 0, 101, 1),
    }


def crossing_moft():
    moft = MOFT()
    # O1 crosses the west polygon; O2 stays far away from both.
    moft.add_many(
        [
            ("O1", 1, -1.0, 0.5),
            ("O1", 2, 2.0, 0.5),
            ("O2", 1, 50.0, 50.0),
            ("O2", 2, 51.0, 50.0),
        ]
    )
    return moft


class TestIndexedBboxRejections:
    def test_indexed_path_counts_pruning(self):
        """Regression: with the grid index on, candidate-set pruning was
        never counted, so the indexed ablation reported zero rejections."""
        counter = TrajectoryIntersectionCounter(two_far_polygons(), "grid")
        stats = EvaluationStats()
        counter.matching_objects(crossing_moft(), stats)
        assert stats.count("bbox_rejections") > 0

    def test_naive_path_still_counts(self):
        counter = TrajectoryIntersectionCounter(two_far_polygons(), "serial")
        stats = EvaluationStats()
        counter.matching_objects(crossing_moft(), stats)
        assert stats.count("bbox_rejections") > 0

    def test_strategies_agree_on_matches(self):
        indexed = TrajectoryIntersectionCounter(two_far_polygons(), "grid")
        naive = TrajectoryIntersectionCounter(two_far_polygons(), "serial")
        moft = crossing_moft()
        assert indexed.matching_objects(moft) == naive.matching_objects(moft)


class TestGridIndexCache:
    def test_repeated_queries_reuse_index(self):
        """Acceptance: repeated count_objects_through calls hit the
        per-id-set grid-index cache instead of rebuilding."""
        world = figure1_instance()
        ctx = world.context()
        first = count_objects_through(ctx, ("Ln", POLYGON), CONSTRAINTS, "FMbus")
        assert ctx.obs.count("grid_index_builds") == 1
        assert ctx.obs.count("grid_index_cache_hits") == 0
        second = count_objects_through(ctx, ("Ln", POLYGON), CONSTRAINTS, "FMbus")
        assert second == first
        assert ctx.obs.count("grid_index_builds") == 1
        assert ctx.obs.count("grid_index_cache_hits") == 1
        assert ctx.obs.stages["index_build"].calls == 1

    def test_distinct_id_sets_get_distinct_indexes(self):
        world = figure1_instance()
        ctx = world.context()
        count_objects_through(ctx, ("Ln", POLYGON), CONSTRAINTS, "FMbus")
        count_objects_through(ctx, ("Ln", POLYGON), [], "FMbus")
        assert ctx.obs.count("grid_index_builds") == 2

    def test_pietql_executor_uses_cache(self):
        from repro.pietql import LayerBinding, PietQLExecutor

        world = figure1_instance()
        ctx = world.context()
        executor = PietQLExecutor(
            ctx,
            {
                "neighborhoods": LayerBinding("Ln", POLYGON),
                "rivers": LayerBinding("Lr", POLYLINE),
                "schools": LayerBinding("Ls", NODE),
            },
        )
        text = (
            "SELECT layer.neighborhoods FROM Fig1 "
            "WHERE intersection(layer.rivers, layer.neighborhoods) "
            "| COUNT OBJECTS FROM FMbus THROUGH RESULT"
        )
        first = executor.execute(text)
        second = executor.execute(text)
        assert first.count == second.count
        assert ctx.obs.count("grid_index_builds") == 1
        assert ctx.obs.count("grid_index_cache_hits") >= 1
        assert ctx.obs.stages["geometric_subquery"].calls >= 2


class TestVectorizedPrefilter:
    def test_prefilter_agrees_with_segment_scan(self):
        geometries = two_far_polygons()
        moft = crossing_moft()
        plain = TrajectoryIntersectionCounter(geometries, "serial")
        fast = TrajectoryIntersectionCounter(geometries, "grid")
        assert plain.matching_objects(moft) == fast.matching_objects(moft)

    def test_prefilter_counts_accepts(self):
        moft = MOFT()
        moft.add_many([("O1", 1, 0.5, 0.5), ("O1", 2, 0.6, 0.5)])
        counter = TrajectoryIntersectionCounter(two_far_polygons(), "grid")
        stats = EvaluationStats()
        assert counter.matching_objects(moft, stats) == {"O1"}
        assert stats.count("vectorized_accepts") == 1
        # The accepted object never entered the per-segment scan.
        assert stats.count("segment_checks") == 0

    def test_prefilter_skipped_for_non_polygons(self):
        from repro.geometry import Polyline

        geometries = {"line": Polyline([Point(0, 0), Point(1, 1)])}
        counter = TrajectoryIntersectionCounter(geometries, "grid")
        stats = EvaluationStats()
        counter.matching_objects(crossing_moft(), stats)
        assert stats.count("vectorized_accepts") == 0

    def test_pipeline_matches_with_and_without_prefilter(self):
        world = figure1_instance()
        with_fast = count_objects_through(
            world.context(), ("Ln", POLYGON), CONSTRAINTS, "FMbus"
        )
        # ``serial`` is the scan without the prefilter.
        without, _ = planned_count_objects_through(
            world.context(), ("Ln", POLYGON), CONSTRAINTS, "FMbus",
            force_strategy="serial",
        )
        assert with_fast == without


class TestSamplesInPolygonsOidRecovery:
    """The columnar region recovers each hit's oid from the table's object
    codes, never from per-row tuples.  Each case is an input of the
    region differential (``lowered_equals_solver``)."""

    @staticmethod
    def _lowered(case):
        region, ctx, expected = case()
        assert lowered_equals_solver(region, ctx) == "lowered"
        assert region.evaluate(ctx) == expected

    def test_hits_recovered_from_oid_column(self):
        """Samples inside, on an edge and on a corner of the unit square
        are hits; the others are not."""
        self._lowered(boundary_sample)

    def test_instant_filter_still_applies(self):
        self._lowered(instant_filter)

    def test_tuple_oids(self):
        self._lowered(tuple_oids)
