"""Differential tests: serial seed path vs every parallel backend.

Each test feeds one query to :class:`tests.parallel.oracle.DifferentialOracle`,
which executes it serially and then under every (backend, shard count)
combination and asserts exact agreement.  Worlds: the paper's Figure 1
instance and a 10k-sample synthetic city (see ``conftest.py``).
"""

from __future__ import annotations

import pytest

from repro.gis import NODE, POLYGON, POLYLINE
from repro.obs import EvaluationStats
from repro.parallel import ShardedExecutor

from tests.parallel.conftest import FIG1_BINDINGS, SYNTH_BINDINGS

FIG1_GEOMETRIC_QUERIES = [
    "SELECT layer.neighborhoods FROM Fig1 "
    "WHERE intersection(layer.rivers, layer.neighborhoods)",
    "SELECT layer.neighborhoods FROM Fig1 "
    "WHERE intersection(layer.rivers, layer.neighborhoods) "
    "AND contains(layer.neighborhoods, layer.schools)",
    "SELECT layer.schools FROM Fig1 "
    "WHERE contains(layer.neighborhoods, layer.schools)",
]

SYNTH_GEOMETRIC_QUERIES = [
    "SELECT layer.cities FROM City "
    "WHERE intersection(layer.rivers, layer.cities)",
    "SELECT layer.cities FROM City "
    "WHERE intersection(layer.rivers, layer.cities) "
    "AND contains(layer.cities, layer.stores)",
    "SELECT layer.neighborhoods FROM City "
    "WHERE intersection(layer.rivers, layer.neighborhoods) "
    "AND contains(layer.neighborhoods, layer.schools)",
]


class TestFigure1Differential:
    def test_count_objects_through(self, fig1_context, oracle):
        report = oracle.check_count(
            fig1_context,
            ("Ln", POLYGON),
            [("intersects", ("Lr", POLYLINE)), ("contains", ("Ls", NODE))],
            moft_name="FMbus",
        )
        # The paper's own answer: O1, O2 through zuid; O3, O5, O6 noord.
        assert report.expected == 5

    @pytest.mark.parametrize("query", FIG1_GEOMETRIC_QUERIES)
    def test_geometric_queries(self, fig1_context, oracle, query):
        report = oracle.check_pietql(fig1_context, FIG1_BINDINGS, query)
        geometry_ids = report.expected[0]
        assert geometry_ids, "vacuous differential test: empty answer"

    def test_through_result_query(self, fig1_context, oracle):
        report = oracle.check_pietql(
            fig1_context,
            FIG1_BINDINGS,
            "SELECT layer.neighborhoods FROM Fig1 "
            "WHERE intersection(layer.rivers, layer.neighborhoods) "
            "AND contains(layer.neighborhoods, layer.schools) "
            "| COUNT OBJECTS FROM FMbus THROUGH RESULT",
        )
        _, count, matched, _ = report.expected
        assert count == 5
        # The fingerprint normalizes id collections to sorted tuples.
        assert matched == ("O1", "O2", "O3", "O5", "O6")


@pytest.mark.slow
class TestSynthCityDifferential:
    def test_count_objects_through(self, synth_world, oracle):
        report = oracle.check_count(
            synth_world.context,
            ("Lc", POLYGON),
            [("intersects", ("Lr", POLYLINE)), ("contains", ("Lsto", NODE))],
        )
        assert report.expected > 0, "vacuous differential test: zero count"

    @pytest.mark.parametrize("query", SYNTH_GEOMETRIC_QUERIES)
    def test_geometric_queries(self, synth_world, oracle, query):
        report = oracle.check_pietql(synth_world.context, SYNTH_BINDINGS, query)
        geometry_ids = report.expected[0]
        assert geometry_ids, "vacuous differential test: empty answer"

    def test_through_result_query(self, synth_world, oracle):
        report = oracle.check_pietql(
            synth_world.context,
            SYNTH_BINDINGS,
            "SELECT layer.cities FROM City "
            "WHERE intersection(layer.rivers, layer.cities) "
            "AND contains(layer.cities, layer.stores) "
            "| COUNT OBJECTS FROM FM THROUGH RESULT",
        )
        _, count, matched, _ = report.expected
        assert count is not None and count > 0
        assert matched


class TestObservabilityOfShardedRuns:
    """The fan-out leaves an audit trail on the pipeline stats."""

    def test_counters_and_stages_populate(self, fig1_context):
        stats = EvaluationStats()
        executor = ShardedExecutor(backend="serial", n_shards=3, obs=stats)
        count = executor.count_objects_through(
            fig1_context,
            ("Ln", POLYGON),
            [("intersects", ("Lr", POLYLINE)), ("contains", ("Ls", NODE))],
            moft_name="FMbus",
        )
        assert count == 5
        assert stats.counters["shard_count"] == 3
        assert "merge_ms" in stats.counters
        for stage in ("shard_fanout", "shard_scan", "merge"):
            assert stats.stages[stage].calls >= 1

    def test_convenience_wrapper_matches(self, fig1_context):
        count = ShardedExecutor(
            backend="serial", n_shards=2, obs=fig1_context.obs
        ).count_objects_through(
            fig1_context,
            ("Ln", POLYGON),
            [("intersects", ("Lr", POLYLINE)), ("contains", ("Ls", NODE))],
            moft_name="FMbus",
        )
        assert count == 5
