"""Unit tests for the cost-based planner (repro.query.planner).

The differential guarantees (every strategy returns the serial answer)
live in ``tests/parallel/test_planner_differential.py``; this module
pins the planner's own mechanics — statistics, cost-model arithmetic,
plan-tree shapes, forced strategies, and the EXPLAIN renderings.
"""

import pytest

from repro.errors import EvaluationError
from repro.gis import NODE, POLYGON, POLYLINE
from repro.mo.moft import MOFT
from repro.parallel import ShardedExecutor
from repro.preagg import PreAggStore
from repro.query import RegionBuilder
from repro.query.ast import And, Const, Exists, Moft, Not, Or, TimeRollup, Var
from repro.query.evaluator import count_objects_through
from repro.query.planner import (
    STRATEGIES,
    CostModel,
    PlanNode,
    explain,
    geometry_statistics,
    plan_count_objects_through,
    planned_count_objects_through,
    table_statistics,
)
from repro.synth.paperdata import figure1_instance

TARGET = ("Ln", POLYGON)
CONSTRAINTS = [
    ("intersects", ("Lr", POLYLINE)),
    ("contains", ("Ls", NODE)),
]


@pytest.fixture()
def context():
    """A fresh Figure 1 context per test (planning mutates caches)."""
    return figure1_instance().context()


@pytest.fixture()
def preagg_context():
    context = figure1_instance().context()
    moft = context.moft("FMbus")
    elements = context.gis.layer("Ln").elements(POLYGON)
    store = PreAggStore(
        moft, context.time, "hour", elements, layer="Ln", kind=POLYGON
    )
    context.register_preagg(store)
    return context


class TestStatistics:
    def test_table_statistics(self, context):
        stats = table_statistics(context.moft("FMbus"))
        assert stats.name == "FMbus"
        assert stats.rows == 12
        assert stats.objects == 6
        assert stats.time_min == 1.0
        assert stats.time_max == 6.0

    def test_empty_table(self):
        stats = table_statistics(MOFT(name="empty"))
        assert stats.rows == 0
        assert stats.objects == 0
        assert stats.time_min is None and stats.time_max is None

    def test_geometry_statistics_empty_ids(self, context):
        stats = geometry_statistics(
            context, TARGET, set(), context.moft("FMbus")
        )
        assert stats.count == 0
        assert stats.coverage == 0.0

    def test_geometry_coverage_clamped(self, context):
        moft = context.moft("FMbus")
        ids = set(context.gis.layer("Ln").elements(POLYGON))
        stats = geometry_statistics(context, TARGET, ids, moft)
        assert stats.count == len(ids)
        assert 0.0 < stats.coverage <= 1.0


class TestCostModel:
    def test_serial_scan_scales_with_geometries(self):
        model = CostModel()
        assert model.scan_cost(
            1000, 10, 0.5, indexed=False
        ) > model.scan_cost(1000, 2, 0.5, indexed=False)

    def test_index_discounts_by_coverage(self):
        model = CostModel()
        serial = model.scan_cost(10_000, 20, 0.1, indexed=False)
        grid = model.scan_cost(10_000, 20, 0.1, indexed=True)
        assert grid < serial

    def test_uncached_index_pays_build(self):
        model = CostModel()
        cached = model.scan_cost(100, 5, 0.5, indexed=True)
        cold = model.scan_cost(100, 5, 0.5, indexed=True, index_cached=False)
        assert cold == cached + 5 * model.index_build_per_geometry

    def test_process_backend_ships_rows(self):
        model = CostModel()
        serial = model.sharded_cost(1e6, "serial", 4, 10_000)
        processes = model.sharded_cost(1e6, "processes", 4, 10_000)
        assert processes != serial
        assert processes >= 4 * model.process_task_overhead

    def test_serial_backend_has_no_speedup(self):
        model = CostModel()
        assert model.sharded_cost(100.0, "serial", 2, 100) == pytest.approx(
            100.0 + 2 * model.serial_task_overhead
        )

    def test_preagg_cost_sliver_adds_scan(self):
        model = CostModel()
        aligned = model.preagg_cost(3, 4, 0, 0.5)
        hybrid = model.preagg_cost(3, 4, 100, 0.5)
        assert aligned == pytest.approx(3 * 4 * model.granule_cost)
        assert hybrid > aligned

    def test_choose_shard_count_bounds(self):
        model = CostModel()
        assert model.choose_shard_count(0, 8) == 1
        assert model.choose_shard_count(10, 8) == 1
        # Enough rows for every cpu:
        assert model.choose_shard_count(
            model.min_rows_per_shard * 64, 8
        ) == 8


class TestPlanning:
    def test_plan_has_known_strategy(self, context):
        plan = plan_count_objects_through(
            context, TARGET, CONSTRAINTS, moft_name="FMbus"
        )
        assert plan.strategy in STRATEGIES
        assert plan.est_cost >= 0.0
        assert plan.root.op == "Aggregate"
        assert plan.root.find("GeometricSubquery") is not None

    def test_alternatives_are_costlier_or_equal(self, context):
        plan = plan_count_objects_through(
            context, TARGET, CONSTRAINTS, moft_name="FMbus"
        )
        for _, cost in plan.alternatives:
            assert cost >= plan.est_cost

    def test_sharded_candidate_requires_executor(self, context):
        plan = plan_count_objects_through(
            context, TARGET, CONSTRAINTS, moft_name="FMbus"
        )
        names = {name for name, _ in plan.alternatives} | {plan.strategy}
        assert "sharded" not in names
        executor = ShardedExecutor(backend="serial", n_shards=2)
        plan = plan_count_objects_through(
            context, TARGET, CONSTRAINTS, moft_name="FMbus",
            executor=executor,
        )
        names = {name for name, _ in plan.alternatives} | {plan.strategy}
        assert "sharded" in names

    def test_preagg_candidate_requires_fresh_store(
        self, context, preagg_context
    ):
        bare = plan_count_objects_through(
            context, TARGET, CONSTRAINTS, moft_name="FMbus"
        )
        names = {name for name, _ in bare.alternatives} | {bare.strategy}
        assert "preagg" not in names
        stored = plan_count_objects_through(
            preagg_context, TARGET, CONSTRAINTS, moft_name="FMbus"
        )
        names = {name for name, _ in stored.alternatives} | {stored.strategy}
        assert "preagg" in names

    def test_force_unknown_strategy_raises(self, context):
        with pytest.raises(EvaluationError, match="unknown strategy"):
            plan_count_objects_through(
                context, TARGET, CONSTRAINTS, moft_name="FMbus",
                force_strategy="quantum",
            )

    def test_force_inapplicable_strategy_raises(self, context):
        with pytest.raises(EvaluationError, match="not applicable"):
            plan_count_objects_through(
                context, TARGET, CONSTRAINTS, moft_name="FMbus",
                force_strategy="preagg",
            )

    def test_plan_shape_sharded(self, context):
        executor = ShardedExecutor(backend="processes", n_shards=3)
        plan = plan_count_objects_through(
            context, TARGET, CONSTRAINTS, moft_name="FMbus",
            executor=executor, force_strategy="sharded",
        )
        fanout = plan.root.find("ShardFanout")
        assert fanout is not None
        assert "backend=processes" in fanout.detail
        assert fanout.children[0].op == "GridScan"
        assert plan.shard_backend == "processes"
        assert plan.shard_count >= 1

    def test_plan_shape_preagg(self, preagg_context):
        plan = plan_count_objects_through(
            preagg_context, TARGET, CONSTRAINTS, moft_name="FMbus",
            force_strategy="preagg",
        )
        lookup = plan.root.find("PreAggLookup")
        assert lookup is not None
        assert "store=" in lookup.detail

    def test_empty_geometric_answer_costs_zero(self, context):
        # No polygon contains a node AND is contained in one: impossible
        # constraint set yields an empty geometric answer.
        plan = plan_count_objects_through(
            context,
            ("Ls", NODE),
            [("contains", ("Ln", POLYGON))],
            moft_name="FMbus",
        )
        assert plan.geometry.count == 0
        assert plan.est_cost == 0.0


class TestPlannedExecution:
    def test_matches_direct_evaluator(self, context):
        reference = count_objects_through(
            context, TARGET, CONSTRAINTS, moft_name="FMbus"
        )
        count, plan = planned_count_objects_through(
            context, TARGET, CONSTRAINTS, moft_name="FMbus"
        )
        assert count == reference == 5
        assert plan.executed
        assert plan.result_count == count
        assert plan.root.actual_rows == count
        assert plan.root.actual_seconds >= 0.0

    def test_actual_rows_filled_on_scan_nodes(self, context):
        count, plan = planned_count_objects_through(
            context, TARGET, CONSTRAINTS, moft_name="FMbus",
            force_strategy="grid",
        )
        scan = plan.root.find("GridScan")
        assert scan.actual_rows == len(context.moft("FMbus"))
        assert scan.actual_seconds >= 0.0

    def test_sharded_without_executor_fails_at_execution(self, context):
        executor = ShardedExecutor(backend="serial", n_shards=2)
        plan = plan_count_objects_through(
            context, TARGET, CONSTRAINTS, moft_name="FMbus",
            executor=executor, force_strategy="sharded",
        )
        from repro.query.planner import execute_plan

        with pytest.raises(EvaluationError, match="no executor"):
            execute_plan(
                plan, context, TARGET, CONSTRAINTS, moft_name="FMbus"
            )


class TestExplain:
    def test_explain_renders_plan(self, context):
        text = explain(context, TARGET, CONSTRAINTS, moft_name="FMbus")
        assert text.startswith("QueryPlan strategy=")
        assert "GeometricSubquery" in text
        assert "est_cost=" in text
        assert "executed" not in text

    def test_explain_analyze_adds_actuals(self, context):
        text = explain(
            context, TARGET, CONSTRAINTS, moft_name="FMbus", analyze=True
        )
        assert "(executed: count=5)" in text
        assert "actual_rows=" in text
        assert "actual_s=" in text

    def test_rejected_line_lists_alternatives(self, preagg_context):
        text = explain(
            preagg_context, TARGET, CONSTRAINTS, moft_name="FMbus"
        )
        assert "rejected:" in text


class TestPlanNode:
    def test_walk_and_find(self):
        leaf = PlanNode(op="Leaf", detail="x")
        root = PlanNode(op="Root", detail="y", children=(leaf,))
        assert [n.op for n in root.walk()] == ["Root", "Leaf"]
        assert root.find("Leaf") is leaf
        assert root.find("Missing") is None

    def test_render_indents_children(self):
        leaf = PlanNode(op="Leaf", detail="x", est_rows=3)
        root = PlanNode(op="Root", detail="y", children=(leaf,))
        lines = root.render()
        assert lines[0] == "Root[y]"
        assert lines[1] == "  Leaf[x]  (est_rows=3)"


class TestDescribeAndBuilderExplain:
    def test_formula_describe_tree(self):
        oid, t, x, y = Var("oid"), Var("t"), Var("x"), Var("y")
        formula = And(
            Moft(oid, t, x, y, "FMbus"),
            Not(TimeRollup(t, "timeOfDay", Const("Morning"))),
            Or(
                TimeRollup(t, "day", Const(1)),
                TimeRollup(t, "day", Const(2)),
            ),
        )
        text = formula.describe()
        assert text.splitlines()[0] == "And"
        assert "  Not" in text
        assert "  Or" in text
        # Leaves are indented one level deeper than their connective.
        assert any(
            line.startswith("    ") for line in text.splitlines()
        )

    def test_exists_shows_variable(self):
        from repro.query.ast import ExplicitDomain

        t = Var("t")
        inner = TimeRollup(t, "timeOfDay", Const("Morning"))
        domain = ExplicitDomain([1.0, 2.0])
        text = Exists(t, domain, inner).describe()
        first = text.splitlines()[0]
        assert first.startswith("Exists")
        assert "ExplicitDomain" in first

    def test_builder_explain_shows_rewrite(self, context):
        builder = (
            RegionBuilder()
            .from_moft("FMbus")
            .during("timeOfDay", "Morning")
        )
        text = builder.explain(context)
        assert text.startswith("Region(outputs=oid, t")
        assert "Rewritten by push_down_time:" in text
        assert "FilteredMoft" in text

    def test_builder_explain_no_rewrite(self, context):
        builder = RegionBuilder().from_moft("FMbus")
        text = builder.explain(context)
        assert "push_down_time: not applicable" in text


class TestPoiBuilderExplain:
    """EXPLAIN of a POI builder names the shard plan its terminal
    methods run: the backend and shard count of the executor
    ``.sharded(executor)`` was given."""

    @pytest.mark.parametrize(
        "shards, backend", [(4, "serial"), (3, "processes"), (1, "serial")]
    )
    def test_rendered_shard_plan_is_the_one_that_runs(
        self, monkeypatch, shards, backend
    ):
        from repro.query import poi as poi_queries

        context = figure1_instance(with_pois=True).context()
        serial = poi_queries.PoiQueryBuilder("Lp", "FMbus").per("hour").serial()
        expected = serial.visits(context)
        with ShardedExecutor(backend, n_shards=shards) as executor:
            builder = (
                poi_queries.PoiQueryBuilder("Lp", "FMbus")
                .per("hour")
                .sharded(executor)
            )
            plan = builder.explain(context)
            assert (
                f"ShardedSegmentScan[{backend} x{shards} + merge]"
                in plan.render()
            )
            assert (plan.shard_count, plan.shard_backend) == (shards, backend)

            received = []
            view = poi_queries.poi_store_view

            def spy(*args, **options):
                received.append(options["executor"])
                return view(*args, **options)

            monkeypatch.setattr(poi_queries, "poi_store_view", spy)
            answer = builder.visits(context)
            assert answer == expected
            assert received == [executor]
            # ... and executing the plan builds on it too.
            built = []
            build = poi_queries.build_store

            def spy_build(*args, **options):
                built.append(options["executor"])
                return build(*args, **options)

            monkeypatch.setattr(poi_queries, "build_store", spy_build)
            from repro.query.planner import execute_poi_plan

            assert execute_poi_plan(
                plan, context, "Lp", "hour", moft_name="FMbus",
                executor=executor,
            ) == answer
            assert built == [executor]

    def test_unforced_builder_prices_its_own_shard_settings(self):
        from repro.query.poi import PoiQueryBuilder

        context = figure1_instance(with_pois=True).context()
        plan = PoiQueryBuilder("Lp", "FMbus").per("hour").explain(context)
        # The terminal methods of an unforced builder scan serially, and
        # without an executor there is no fan-out to price.
        assert plan.strategy == "serial"
        assert "sharded" not in dict(plan.alternatives)

    def test_unrunnable_backend_is_refused_at_planning(self):
        """``threads`` names no backend: the executor a builder would be
        given cannot be made, and a sharded plan without one is refused
        (``processes``, refused here once, is ``[3-processes]`` above)."""
        from repro.query.poi import PoiQueryBuilder

        with pytest.raises(EvaluationError, match="unknown backend"):
            ShardedExecutor("threads", n_shards=2)
        context = figure1_instance(with_pois=True).context()
        builder = PoiQueryBuilder("Lp", "FMbus").per("hour")
        with pytest.raises(EvaluationError, match="no executor"):
            builder.sharded(None).explain(context)
        with pytest.raises(EvaluationError, match="no executor"):
            builder.visits(context)
