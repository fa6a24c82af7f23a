"""One leaf, one planner, one run record.

The through-count, the dwell total and the four POI measures are kinds
of one :class:`~repro.query.evaluator.Leaf`, planned by one
:func:`~repro.query.planner.plan` and run by one
:func:`~repro.query.evaluator.execute`.  Pinned here:

* **one path** — every front-end reaches the one ``execute`` exactly
  once per query (planning alone never does);
* **one set of refusals** — a forced strategy a leaf cannot run is
  refused with the same messages for every kind, at planning and at
  execution;
* **one staleness rule** — a leaf executed after its table grew is
  refused, for every kind and strategy;
* **the run record fills every plan** — an executed POI plan carries
  actuals and the shards that ran, as a through plan does;
* **no child table** — Piet-QL's ``COUNT OBJECTS|SAMPLES … DURING``
  without ``THROUGH RESULT`` reads the table's row mask and answers
  what the restricted table answers.
"""

from __future__ import annotations

import sys
from datetime import datetime

import numpy as np
import pytest

from repro.errors import EvaluationError
from repro.gis import NODE, POI, POLYGON, POLYLINE
from repro.mo.moft import MOFT
from repro.parallel import ShardedExecutor, ShardedPietQLExecutor
from repro.pietql import LayerBinding, PietQLExecutor
from repro.poi import PoiVisitStore
from repro.preagg import PreAggStore
from repro.query import evaluator
from repro.query.aggregate import total_dwell_time
from repro.query.evaluator import (
    KINDS,
    STRATEGIES,
    count_objects_through,
    execute,
    objects_through,
    resolve_through,
)
from repro.query.planner import (
    execute_plan,
    execute_poi_plan,
    plan,
    plan_count_objects_through,
    plan_poi_aggregate,
    planned_count_objects_through,
)
from repro.query.poi import (
    poi_distinct_visitors,
    poi_dwell_times,
    poi_store_view,
    poi_topk,
    poi_visit_counts,
    resolve_poi,
)
from repro.query.region import EvaluationContext
from repro.service import QuerySpec, ServiceWorld
from repro.service.worker import execute_spec
from repro.synth import CityConfig, build_city, figure1_instance
from repro.synth.movement import random_waypoint_moft
from repro.temporal.calendar import hourly
from repro.temporal.timedim import TimeDimension

from tests.query.plans import find

TARGET = ("Ln", POLYGON)
CONSTRAINTS = [("intersects", ("Lr", POLYLINE)), ("contains", ("Ls", NODE))]
THROUGH = dict(moft_name="FMbus")
POI_QUERY = dict(moft_name="FMbus")
BINDINGS = {
    "neighborhoods": LayerBinding("Ln", POLYGON),
    "rivers": LayerBinding("Lr", POLYLINE),
    "schools": LayerBinding("Ls", NODE),
}
THROUGH_TEXT = (
    "SELECT layer.neighborhoods FROM Fig1 "
    "WHERE intersection(layer.rivers, layer.neighborhoods) "
    "AND contains(layer.neighborhoods, layer.schools) "
    "| COUNT OBJECTS FROM FMbus THROUGH RESULT DURING hour = '3'"
)
POI_TEXT = "SELECT layer.Lp FROM Fig1 | TOP 2 FROM FMbus AT layer.Lp BY hour"


def fig1_context(stores: bool) -> EvaluationContext:
    """Figure 1 with its POIs, and (``stores``) an hour store for the
    neighbourhoods and one for the POIs."""
    context = figure1_instance(with_pois=True).context()
    if stores:
        moft = context.moft("FMbus")
        context.register_preagg(PreAggStore(
            moft, context.time, "hour",
            context.gis.layer("Ln").elements(POLYGON),
            layer="Ln", kind=POLYGON,
        ))
        context.register_preagg(PoiVisitStore(
            moft, context.time, "hour",
            dict(context.gis.layer("Lp").elements(POI)), layer="Lp",
        ))
    return context


def leaf_of(kind: str, context: EvaluationContext):
    if kind in ("through", "dwell"):
        return resolve_through(context, TARGET, CONSTRAINTS, kind=kind, **THROUGH)
    measure = kind[len("poi_"):]
    return resolve_poi(
        context, "Lp", "hour", measure=measure,
        k=2 if measure == "topk" else None, **POI_QUERY,
    )


@pytest.fixture()
def executions(monkeypatch):
    """Every call of the one ``execute``, as ``(kind, strategy)``, from
    wherever a module holds it."""
    calls = []
    original = evaluator.execute

    def spy(leaf, strategy, *args, **kwargs):
        calls.append((leaf.kind, strategy))
        return original(leaf, strategy, *args, **kwargs)

    for module in list(sys.modules.values()):
        if (
            getattr(module, "__name__", "").startswith("repro")
            and getattr(module, "execute", None) is original
        ):
            monkeypatch.setattr(module, "execute", spy)
    return calls


def service_world(context):
    return ServiceWorld("fig1", context, dict(BINDINGS))


def planned_then_executed(context):
    chosen = plan_count_objects_through(context, TARGET, CONSTRAINTS, **THROUGH)
    return execute_plan(chosen, context, TARGET, CONSTRAINTS, **THROUGH)


def poi_planned_then_executed(context):
    chosen = plan_poi_aggregate(context, "Lp", "hour", **POI_QUERY)
    return execute_poi_plan(chosen, context, "Lp", "hour", **POI_QUERY)


def cli_poi(context):
    from repro.__main__ import main

    assert main(["poi", "--world", "fig1"]) == 0


FRONT_ENDS = {
    "objects_through": (
        lambda c: objects_through(c, TARGET, CONSTRAINTS, **THROUGH), "through"
    ),
    "count_objects_through": (
        lambda c: count_objects_through(c, TARGET, CONSTRAINTS, **THROUGH),
        "through",
    ),
    "count_objects_through-sharded": (
        lambda c: count_objects_through(
            c, TARGET, CONSTRAINTS, use_preagg=False,
            executor=ShardedExecutor("serial", n_shards=2), **THROUGH,
        ),
        "through",
    ),
    "total_dwell_time": (
        lambda c: total_dwell_time(c, TARGET, CONSTRAINTS, **THROUGH), "dwell"
    ),
    "poi_visit_counts": (
        lambda c: poi_visit_counts(c, "Lp", "hour", **POI_QUERY), "poi_visits"
    ),
    "poi_distinct_visitors": (
        lambda c: poi_distinct_visitors(c, "Lp", "hour", **POI_QUERY),
        "poi_visitors",
    ),
    "poi_dwell_times": (
        lambda c: poi_dwell_times(c, "Lp", "hour", **POI_QUERY), "poi_dwell"
    ),
    "poi_topk": (
        lambda c: poi_topk(c, "Lp", "hour", 2, **POI_QUERY), "poi_topk"
    ),
    "poi_store_view": (
        lambda c: poi_store_view(c, "Lp", "hour", **POI_QUERY), "poi_visits"
    ),
    "plan_count_objects_through": (planned_then_executed, "through"),
    "planned_count_objects_through": (
        lambda c: planned_count_objects_through(
            c, TARGET, CONSTRAINTS, **THROUGH
        ),
        "through",
    ),
    "plan_poi_aggregate": (poi_planned_then_executed, "poi_visits"),
    "pietql-through": (
        lambda c: PietQLExecutor(c, BINDINGS).execute(THROUGH_TEXT), "through"
    ),
    "pietql-through-sharded": (
        lambda c: ShardedPietQLExecutor(c, BINDINGS).execute(THROUGH_TEXT),
        "through",
    ),
    "pietql-poi": (
        lambda c: PietQLExecutor(c, BINDINGS).execute(POI_TEXT), "poi_topk"
    ),
    "execute_spec-through": (
        lambda c: execute_spec(
            QuerySpec.through(TARGET, CONSTRAINTS, **THROUGH), service_world(c)
        ),
        "through",
    ),
    "execute_spec-pietql": (
        lambda c: execute_spec(
            QuerySpec.pietql("EXPLAIN " + POI_TEXT), service_world(c)
        ),
        "poi_topk",
    ),
    "cli-poi": (cli_poi, "poi_topk"),
}


class TestOnePath:
    @pytest.mark.parametrize("stores", [False, True], ids=["scan", "stores"])
    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    def test_each_front_end_executes_once(self, executions, front_end, stores):
        call, kind = FRONT_ENDS[front_end]
        call(fig1_context(stores))
        assert [k for k, _ in executions] == [kind]

    def test_stores_serve_the_function_front_ends(self, executions):
        context = fig1_context(stores=True)
        count_objects_through(context, TARGET, CONSTRAINTS, **THROUGH)
        total_dwell_time(context, TARGET, CONSTRAINTS, **THROUGH)
        poi_visit_counts(context, "Lp", "hour", **POI_QUERY)
        assert executions == [
            ("through", "preagg"), ("dwell", "preagg"),
            ("poi_visits", "preagg"),
        ]

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_planning_executes_nothing(self, executions, kind):
        chosen = plan(leaf_of(kind, fig1_context(stores=True)))
        assert chosen.strategy in KINDS[kind]
        assert not chosen.executed and executions == []
        run = chosen.execute()
        assert executions == [(kind, chosen.strategy)]
        assert chosen.executed and chosen.result_count == run.rows


class TestOneSetOfRefusals:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_unknown_strategy(self, kind):
        leaf = leaf_of(kind, fig1_context(stores=True))
        with pytest.raises(EvaluationError, match="unknown strategy"):
            plan(leaf, force_strategy="quantum")
        with pytest.raises(EvaluationError, match="unknown strategy"):
            execute(leaf, "quantum")

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_strategies_the_kind_does_not_run(self, kind):
        leaf = leaf_of(kind, fig1_context(stores=True))
        executor = ShardedExecutor("serial", n_shards=2)
        for strategy in set(STRATEGIES) - set(KINDS[kind]):
            with pytest.raises(EvaluationError, match="not applicable"):
                plan(leaf, executor, force_strategy=strategy)
            with pytest.raises(EvaluationError, match="not applicable"):
                execute(leaf, strategy, executor)

    @pytest.mark.parametrize(
        "kind", sorted(k for k in KINDS if "sharded" in KINDS[k])
    )
    def test_sharded_without_an_executor(self, kind):
        leaf = leaf_of(kind, fig1_context(stores=False))
        for refused in (
            lambda: plan(leaf, force_strategy="sharded"),
            lambda: execute(leaf, "sharded"),
        ):
            with pytest.raises(EvaluationError, match="not applicable") as err:
                refused()
            assert "no executor" in str(err.value)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_preagg_without_a_store(self, kind):
        leaf = leaf_of(kind, fig1_context(stores=False))
        for refused in (
            lambda: plan(leaf, force_strategy="preagg"),
            lambda: execute(leaf, "preagg"),
        ):
            with pytest.raises(EvaluationError, match="not applicable"):
                refused()


class TestOneStalenessRule:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_execute_after_append_is_refused(self, kind):
        for strategy in KINDS[kind]:
            context = fig1_context(stores=True)
            executor = ShardedExecutor("serial", n_shards=2)
            chosen = plan(leaf_of(kind, context), executor, force_strategy=strategy)
            context.moft("FMbus").add("late", 30.0, 0.0, 0.0)
            with pytest.raises(EvaluationError, match="changed after") as err:
                chosen.execute(executor)
            assert "stale after planning" in str(err.value)
            assert not chosen.executed


class TestRunRecordFillsEveryPlan:
    """Figure 1's table holds 6 objects: 8 shards ship 6."""

    def test_through_and_poi_plans_report_the_shards_that_ran(self):
        context = fig1_context(stores=False)
        through_executor = ShardedExecutor("serial", n_shards=8)
        through = plan_count_objects_through(
            context, TARGET, CONSTRAINTS, executor=through_executor,
            force_strategy="sharded", **THROUGH,
        )
        poi_executor = ShardedExecutor("serial", n_shards=8)
        poi = plan_poi_aggregate(
            context, "Lp", "hour", executor=poi_executor,
            force_strategy="sharded", **POI_QUERY,
        )
        assert "ShardFanout[backend=serial, shards=8]" in through.render()
        assert "ShardedSegmentScan[serial x8 + merge]" in poi.render()
        through.execute(through_executor)
        poi.execute(poi_executor)
        for chosen, executor in (
            (through, through_executor), (poi, poi_executor),
        ):
            assert executor.obs.count("shard_count") == 6
            assert chosen.shard_count == 6
        assert "ShardFanout[backend=serial, shards=6]" in through.render()
        assert "ShardedSegmentScan[serial x6 + merge]" in poi.render()

    @pytest.mark.parametrize("strategy", ["serial", "sharded", "preagg"])
    def test_every_executed_poi_node_has_actuals(self, strategy):
        context = fig1_context(stores=True)
        executor = ShardedExecutor("serial", n_shards=8)
        chosen = plan_poi_aggregate(
            context, "Lp", "hour", executor=executor, force_strategy=strategy,
            **POI_QUERY,
        )
        answer = chosen.execute(executor).answer
        assert chosen.result_count == len(answer) > 0
        for node in chosen.root.walk():
            assert node.actual_rows is not None, node.op
            assert node.actual_seconds is not None, node.op
        assert chosen.root.actual_rows == len(answer)
        if strategy != "preagg":
            scan = find(chosen.root, "StopSegmentScan")
            assert scan.actual_rows == len(context.moft("FMbus"))


def city_context() -> EvaluationContext:
    """The 10k-sample synthetic city."""
    city = build_city(
        CityConfig(cols=6, rows=6), rng=np.random.default_rng(20060109)
    )
    moft = random_waypoint_moft(
        city.bounding_box, n_objects=100, n_instants=100,
        speed=city.config.block_size / 2, rng=np.random.default_rng(42),
    )
    time_dim = TimeDimension.from_mapping(
        hourly(datetime(2006, 1, 9, 0, 0)), range(100)
    )
    return EvaluationContext(city.gis, time_dim, moft)


class TestCountDuringBuildsNoChildTable:
    """``COUNT OBJECTS|SAMPLES … DURING`` without ``THROUGH RESULT``,
    against the restricted table it used to build, for up to three
    members of every level of the Time dimension."""

    @pytest.mark.parametrize("world", ["fig1", "city"])
    def test_answers_equal_the_restricted_table(self, world, monkeypatch):
        if world == "fig1":
            context, table, schema = fig1_context(False), "FMbus", "Fig1"
        else:
            context, table, schema = city_context(), "FM", "City"
        moft = context.moft(table)
        time_dim = context.time
        references = {}
        for level in sorted(time_dim.instance.schema.levels):
            for member in sorted(time_dim.instance.members(level), key=repr)[:3]:
                instants = {float(t) for t in time_dim.instants_where(level, member)}
                restricted = moft.restrict_instants(instants)
                references[(level, member)] = (
                    restricted.objects(), len(restricted)
                )
        assert len(references) > 10
        calls = []
        original = MOFT.mask_rows
        monkeypatch.setattr(
            MOFT, "mask_rows",
            lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs),
        )
        executor = PietQLExecutor(context)
        for (level, member), (objects, samples) in references.items():
            for what, expected in (("OBJECTS", len(objects)), ("SAMPLES", samples)):
                result = executor.execute(
                    f"SELECT layer.Ln FROM {schema} | COUNT {what} "
                    f"FROM {table} DURING {level} = '{member}'"
                )
                assert result.count == expected, (what, level, member)
                assert result.matched_objects == objects, (level, member)
        assert calls == []
