"""Unit coverage of the POI store lifecycle and the spatial OLAP walk.

Merge completeness checks, copy-on-write clones, the top-k tie-break,
temporal and spatial roll-ups, the cube view, the context registry and
the planner's strategy pricing — the pieces the differential oracle
exercises end-to-end, pinned here one seam at a time.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    EvaluationError,
    PreAggError,
    RollupError,
)
from repro.mo.moft import MOFT
from repro.olap import poi_parent_mapping, spatial_drilldown, spatial_rollup
from repro.poi import PoiVisitStore
from repro.query.planner import execute_poi_plan, plan_poi_aggregate
from repro.query.poi import PoiQueryBuilder, resolve_pois
from repro.query.region import EvaluationContext
from repro.synth.paperdata import figure1_instance

from tests.poi.conftest import canon

pytestmark = pytest.mark.poi


@pytest.fixture()
def fig1_store(fig1_world):
    return PoiVisitStore(
        fig1_world.moft,
        fig1_world.time,
        "hour",
        dict(fig1_world.gis.layer("Lp").elements("poi")),
        layer="Lp",
    )


class TestStoreBasics:
    def test_empty_pois_rejected(self, fig1_world):
        with pytest.raises(PreAggError):
            PoiVisitStore(fig1_world.moft, fig1_world.time, "hour", {})

    def test_topk_tie_break_and_k_validation(self, fig1_store):
        with pytest.raises(PreAggError):
            fig1_store.topk(0)
        ranking = fig1_store.topk(3)
        # Hour 2: market and south school tie at one visitor each; the
        # tie breaks ascending by repr(poi id).
        assert ranking[2] == (("poi_market", 1), ("poi_school_south", 1))

    def test_temporal_rollup_day(self, fig1_store):
        parent, visits, dwell, visitors = fig1_store.rollup_cells("day")
        assert set(visits) == {
            ("poi_market", "2006-01-09"),
            ("poi_school_south", "2006-01-09"),
        }
        assert sum(visits.values()) == sum(
            fig1_store.visit_counts().values()
        )
        assert abs(
            sum(dwell.values()) - sum(fig1_store.dwell_times().values())
        ) < 1e-12
        for oids in visitors.values():
            assert list(oids) == sorted(set(oids), key=repr)

    def test_as_cube(self, fig1_store):
        cube = fig1_store.as_cube()
        assert set(cube.fact_table.schema.measures) == {
            "visits", "dwell", "distinct_visitors",
        }
        assert len(cube) > 0

    def test_stats_shape(self, fig1_store):
        stats = fig1_store.stats()
        assert stats["pois"] == 3
        assert stats["granule_level"] == "hour"


class TestCloneAndMerge:
    def test_clone_shares_until_update(self, fig1_world, fig1_store):
        clone = fig1_store.clone()
        assert canon(clone.visit_counts()) == canon(
            fig1_store.visit_counts()
        )
        assert not clone.is_stale()

    def test_merge_rejects_schema_disagreement(self, fig1_world):
        pois = dict(fig1_world.gis.layer("Lp").elements("poi"))
        parts = fig1_world.moft.partition_by_objects(2)
        a = PoiVisitStore(parts[0], fig1_world.time, "hour", pois)
        b = PoiVisitStore(
            parts[1], fig1_world.time, "hour", pois, min_dwell=1.0
        )
        with pytest.raises(PreAggError):
            PoiVisitStore.merge([a, b], fig1_world.moft)

    def test_merge_rejects_duplicate_objects(self, fig1_world):
        pois = dict(fig1_world.gis.layer("Lp").elements("poi"))
        store = PoiVisitStore(fig1_world.moft, fig1_world.time, "hour", pois)
        with pytest.raises(PreAggError):
            PoiVisitStore.merge([store, store], fig1_world.moft)

    def test_merge_rejects_missing_coverage(self, fig1_world):
        pois = dict(fig1_world.gis.layer("Lp").elements("poi"))
        parts = fig1_world.moft.partition_by_objects(2)
        only_half = PoiVisitStore(parts[0], fig1_world.time, "hour", pois)
        with pytest.raises(PreAggError):
            PoiVisitStore.merge([only_half], fig1_world.moft)

    def test_merge_empty_rejected(self, fig1_world):
        with pytest.raises(PreAggError):
            PoiVisitStore.merge([], fig1_world.moft)


class TestTimeDimensionEdit:
    """Regressions: the POI store used to watch the table version only."""

    def fresh_world(self):
        world = figure1_instance(with_pois=True)
        ctx = world.context()
        pois = dict(world.gis.layer("Lp").elements("poi"))
        store = ctx.register_preagg(
            PoiVisitStore(
                world.moft, world.time, "hour", pois, layer="Lp", obs=ctx.obs
            )
        )
        return world, ctx, pois, store

    def test_dimension_edit_is_stale_and_rebuilds(self):
        """A new instant in a new hour 0 shifts every granule code: a
        stop at t = 5..6 folded over the old partition was labelled
        hour 6 where a rebuilt store says hour 5."""
        world, ctx, pois, store = self.fresh_world()
        world.time.instance.set_rollup("timeId", 0, "hour", 0)
        assert store.is_stale()
        at = pois["poi_market"].center
        world.moft.extend_columns(
            ["p", "p"], [5.0, 6.0], [at.x, at.x], [at.y, at.y]
        )
        updates = ctx.obs.count("poi_store_updates")
        assert store.update() == "rebuild"
        assert ctx.obs.count("poi_store_updates") == updates + 1
        assert not store.is_stale()
        rebuilt = PoiVisitStore(world.moft, world.time, "hour", pois)
        assert store.visit_counts() == rebuilt.visit_counts()
        assert store.visit_counts()[("poi_market", 5)] == 1
        assert ("poi_market", 6) not in store.visit_counts()
        assert canon(store.dwell_times()) == canon(rebuilt.dwell_times())

    def test_through_count_over_the_poi_layer_ignores_the_poi_store(self):
        """Regression: ``preagg_for`` matched the POI store on (moft,
        layer, kind, ids) and the through-count died on its missing
        ``objects_through``."""
        from repro.query.evaluator import count_objects_through

        _, ctx, _, _ = self.fresh_world()
        target = ("Lp", "poi")
        expected = count_objects_through(
            ctx, target, [], moft_name="FMbus", use_preagg=False
        )
        assert expected == 4
        assert count_objects_through(
            ctx, target, [], moft_name="FMbus"
        ) == expected
        assert ctx.obs.count("preagg_hits") == 0


class TestSpatialOlap:
    def test_parent_mapping_by_center(self, fig1_world):
        mapping = poi_parent_mapping(fig1_world.gis, "Lp", "Ln")
        assert mapping["poi_school_south"] == "pg_zuid"
        assert mapping["poi_school_north"] == "pg_noord"

    def test_rollup_preserves_totals(self, fig1_world, fig1_store):
        mapping = poi_parent_mapping(fig1_world.gis, "Lp", "Ln")
        visits = fig1_store.visit_counts()
        rolled = spatial_rollup(visits, mapping)
        assert sum(rolled.values()) == sum(visits.values())
        dwell = fig1_store.dwell_times()
        rolled_dwell = spatial_rollup(dwell, mapping)
        assert abs(
            sum(rolled_dwell.values()) - sum(dwell.values())
        ) < 1e-12

    def test_rollup_unions_visitor_sets(self, fig1_world, fig1_store):
        mapping = {gid: "everywhere" for gid in fig1_store.gids}
        visitors = fig1_store.distinct_visitors()
        rolled = spatial_rollup(visitors, mapping)
        for oids in rolled.values():
            assert list(oids) == sorted(set(oids), key=repr)

    def test_rollup_rejects_unmapped_gid(self, fig1_store):
        with pytest.raises(RollupError):
            spatial_rollup(fig1_store.visit_counts(), {})

    def test_drilldown_inverts_rollup(self, fig1_world, fig1_store):
        mapping = poi_parent_mapping(fig1_world.gis, "Lp", "Ln")
        visits = fig1_store.visit_counts()
        rolled = spatial_rollup(visits, mapping)
        for (parent, _), _ in rolled.items():
            down = spatial_drilldown(visits, mapping, parent)
            assert spatial_rollup(down, mapping) == {
                key: value
                for key, value in rolled.items()
                if key[0] == parent
            }

    def test_drilldown_rejects_unknown_parent(self, fig1_world, fig1_store):
        mapping = poi_parent_mapping(fig1_world.gis, "Lp", "Ln")
        with pytest.raises(RollupError):
            spatial_drilldown(fig1_store.visit_counts(), mapping, "nowhere")

    def test_store_rollup_space_delegate(self, fig1_world, fig1_store):
        mapping = poi_parent_mapping(fig1_world.gis, "Lp", "Ln")
        visits, dwell, visitors = fig1_store.rollup_space(mapping)
        assert visits == spatial_rollup(fig1_store.visit_counts(), mapping)
        assert dwell == spatial_rollup(fig1_store.dwell_times(), mapping)
        assert visitors == spatial_rollup(
            fig1_store.distinct_visitors(), mapping
        )


class TestQueryLayer:
    def test_resolve_pois_typed_error(self, fig1_context):
        with pytest.raises(EvaluationError):
            resolve_pois(fig1_context, "Ln")

    def test_builder_requires_granule(self, fig1_context):
        with pytest.raises(EvaluationError):
            PoiQueryBuilder("Lp", "FMbus").visits(fig1_context)

    def test_builder_full_chain(self, fig1_context):
        builder = (
            PoiQueryBuilder("Lp", "FMbus")
            .per("hour")
            .with_min_dwell(0.0)
            .sharded(2, backend="threads")
        )
        sharded = builder.visits(fig1_context)
        serial = (
            PoiQueryBuilder("Lp", "FMbus").per("hour").serial()
        ).visits(fig1_context)
        assert canon(sharded) == canon(serial)

    def test_at_poi_region_builder(self, fig1_world):
        from repro.query import RegionBuilder

        region = (
            RegionBuilder()
            .from_moft("FMbus")
            .at_poi("place")
            .build(fig1_world.gis)
        )
        assert region is not None

    def test_planner_prices_and_routes(self, fig1_world):
        ctx = fig1_world.context()
        plan = plan_poi_aggregate(ctx, "Lp", "hour", moft_name="FMbus")
        assert plan.strategy in ("serial", "sharded")
        assert plan.alternatives
        result = execute_poi_plan(
            plan, ctx, "Lp", "hour", moft_name="FMbus"
        )
        assert plan.executed
        assert result

    def test_planner_preagg_route(self, fig1_world):
        ctx = fig1_world.context()
        store = PoiVisitStore(
            fig1_world.moft,
            fig1_world.time,
            "hour",
            dict(fig1_world.gis.layer("Lp").elements("poi")),
            layer="Lp",
            obs=ctx.obs,
        )
        ctx.register_preagg(store)
        plan = plan_poi_aggregate(ctx, "Lp", "hour", moft_name="FMbus")
        assert plan.strategy == "preagg"
        assert "PoiCellRead" in plan.render()

    def test_planner_executes_from_what_it_resolved(
        self, fig1_world, monkeypatch
    ):
        """Executing a POI plan looks nothing up again: the store, the
        POI set and the table come with the plan, and the hit is counted
        at execution, once."""
        ctx = fig1_world.context()
        store = PoiVisitStore(
            fig1_world.moft,
            fig1_world.time,
            "hour",
            dict(fig1_world.gis.layer("Lp").elements("poi")),
            layer="Lp",
            obs=ctx.obs,
        )
        ctx.register_preagg(store)
        plan = plan_poi_aggregate(
            ctx, "Lp", "hour", moft_name="FMbus", measure="topk", k=2
        )
        assert plan.operands.store is store
        assert ctx.obs.count("poi_preagg_hits") == 0
        lookups = []
        monkeypatch.setattr(
            type(ctx), "poi_store_for",
            lambda *args, **kwargs: lookups.append(args),
        )
        result = execute_poi_plan(
            plan, ctx, "Lp", "hour", moft_name="FMbus", measure="topk", k=2
        )
        assert not lookups
        assert ctx.obs.count("poi_preagg_hits") == 1
        assert canon(result) == canon(store.topk(2))

    def test_planned_store_gone_stale_is_refused(self):
        """The plan keeps its store; rows appended between planning and
        execution must not be answered from the old cells."""
        world = figure1_instance(with_pois=True)
        ctx = world.context()
        ctx.register_preagg(
            PoiVisitStore(
                world.moft,
                world.time,
                "hour",
                dict(world.gis.layer("Lp").elements("poi")),
                layer="Lp",
                obs=ctx.obs,
            )
        )
        plan = plan_poi_aggregate(ctx, "Lp", "hour", moft_name="FMbus")
        assert plan.strategy == "preagg"
        world.moft.add("late", 7.0, 0.0, 0.0)
        with pytest.raises(EvaluationError, match="stale after planning"):
            execute_poi_plan(plan, ctx, "Lp", "hour", moft_name="FMbus")
        assert ctx.obs.count("poi_preagg_hits") == 0

    def test_planner_force_unknown_strategy(self, fig1_context):
        with pytest.raises(EvaluationError):
            plan_poi_aggregate(
                fig1_context, "Lp", "hour", moft_name="FMbus",
                force_strategy="quantum",
            )

    def test_planner_force_unavailable_preagg(self, fig1_context):
        with pytest.raises(EvaluationError):
            plan_poi_aggregate(
                fig1_context, "Lp", "hour", moft_name="FMbus",
                force_strategy="preagg",
            )


class TestIngestSpec:
    def test_min_dwell_on_non_poi_spec_rejected(self):
        from repro.errors import IngestError
        from repro.ingest import StoreSpec

        with pytest.raises(IngestError):
            StoreSpec("hour", "Ln", "polygon", min_dwell=1.0)

    def test_poi_spec_carries_min_dwell(self):
        from repro.ingest import StoreSpec

        spec = StoreSpec("hour", "Lp", "poi", min_dwell=0.5)
        assert spec.min_dwell == 0.5
