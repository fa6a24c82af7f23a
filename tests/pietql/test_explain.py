"""EXPLAIN-prefixed Piet-QL: parsing, formatting, and attached plans."""

import pytest

from repro.gis import NODE, POLYGON, POLYLINE
from repro.pietql import LayerBinding, PietQLExecutor, format_query, parse
from repro.preagg import PreAggStore
from repro.synth.paperdata import figure1_instance

from tests.query.plans import find

THROUGH_QUERY = (
    "SELECT layer.neighborhoods FROM Fig1 "
    "WHERE intersection(layer.rivers, layer.neighborhoods) "
    "AND contains(layer.neighborhoods, layer.schools) "
    "| COUNT OBJECTS FROM FMbus THROUGH RESULT"
)

BINDINGS = {
    "neighborhoods": LayerBinding("Ln", POLYGON),
    "rivers": LayerBinding("Lr", POLYLINE),
    "schools": LayerBinding("Ls", NODE),
}


@pytest.fixture()
def executor():
    return PietQLExecutor(figure1_instance().context(), BINDINGS)


@pytest.fixture()
def preagg_executor():
    context = figure1_instance().context()
    moft = context.moft("FMbus")
    elements = context.gis.layer("Ln").elements(POLYGON)
    store = PreAggStore(
        moft, context.time, "hour", elements, layer="Ln", kind=POLYGON
    )
    context.register_preagg(store)
    return PietQLExecutor(context, BINDINGS)


class TestParsing:
    def test_explain_prefix_sets_flag(self):
        query = parse("EXPLAIN " + THROUGH_QUERY)
        assert query.explain
        plain = parse(THROUGH_QUERY)
        assert not plain.explain
        # EXPLAIN changes nothing else.
        assert query.geometric == plain.geometric
        assert query.moving_objects == plain.moving_objects

    def test_explain_is_case_insensitive(self):
        assert parse("explain SELECT layer.Ln FROM S").explain

    def test_format_roundtrip(self):
        query = parse("EXPLAIN " + THROUGH_QUERY)
        text = format_query(query)
        assert text.startswith("EXPLAIN ")
        assert parse(text) == query

    def test_plain_format_has_no_prefix(self):
        assert not format_query(parse(THROUGH_QUERY)).startswith("EXPLAIN")


class TestExecution:
    def test_plain_query_has_no_plan(self, executor):
        result = executor.execute(THROUGH_QUERY)
        assert result.plan is None

    def test_explain_executes_and_attaches_plan(self, executor):
        result = executor.execute("EXPLAIN " + THROUGH_QUERY)
        # Same answer as the plain query…
        assert result.count == 5
        assert result.matched_objects == frozenset(
            {"O1", "O2", "O3", "O5", "O6"}
        )
        # …plus a plan with estimates and actuals.
        plan = result.plan
        assert plan is not None
        assert plan.executed
        assert plan.result_count == 5
        assert plan.strategy == "grid"
        scan = find(plan.root, "GridScan")
        assert scan is not None
        assert scan.actual_rows == 12
        geo = find(plan.root, "GeometricSubquery")
        assert geo.actual_rows == 2

    def test_explain_render_mentions_stages(self, executor):
        result = executor.execute("EXPLAIN " + THROUGH_QUERY)
        text = result.plan.render()
        assert text.startswith("QueryPlan strategy=grid")
        assert "GeometricSubquery" in text
        assert "actual_rows=" in text

    def test_preagg_route_is_reported(self, preagg_executor):
        result = preagg_executor.execute("EXPLAIN " + THROUGH_QUERY)
        assert result.count == 5
        plan = result.plan
        assert plan.strategy == "preagg"
        assert find(plan.root, "PreAggLookup") is not None
        # The scans it did not run show up as rejected alternatives: the
        # plan is the planner's, so every priced candidate is named.
        assert dict(plan.alternatives).keys() == {"serial", "grid"}

    def test_geometric_only_explain(self, executor):
        result = executor.execute("EXPLAIN SELECT layer.neighborhoods FROM Fig1")
        assert result.plan.strategy == "geometric"
        assert result.plan.result_count == len(result.geometry_ids) == 4

    def test_during_clause_appears_in_plan(self, executor):
        result = executor.execute(
            "EXPLAIN SELECT layer.neighborhoods FROM Fig1 "
            "| COUNT OBJECTS FROM FMbus THROUGH RESULT "
            "DURING timeOfDay = 'Morning'"
        )
        during = find(result.plan.root, "DuringRestriction")
        assert during is not None
        assert "timeOfDay" in during.detail

    def test_no_through_counts_rows(self, executor):
        result = executor.execute(
            "EXPLAIN SELECT layer.neighborhoods FROM Fig1 "
            "| COUNT SAMPLES FROM FMbus"
        )
        assert result.plan.strategy == "count"
        assert find(result.plan.root, "CountRows") is not None
        assert result.count == 12.0

    def test_olap_part_in_plan(self, executor):
        result = executor.execute(
            "EXPLAIN SELECT layer.neighborhoods FROM Fig1 "
            "| AGGREGATE sum(income) BY neighborhood"
        )
        node = find(result.plan.root, "OlapAggregate")
        assert node is not None
        assert "sum(income)" in node.detail
