"""Unit coverage of the POI store lifecycle and the spatial OLAP walk.

Merge completeness checks, copy-on-write clones, the top-k tie-break,
temporal and spatial roll-ups, the cube view, the context registry and
the planner's strategy pricing — the pieces the differential oracle
exercises end-to-end, pinned here one seam at a time.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import (
    EvaluationError,
    PreAggError,
    RollupError,
)
from repro.mo.moft import MOFT
from repro.olap import poi_parent_mapping, spatial_drilldown
from repro.parallel import ShardedExecutor
from repro.poi import PoiVisitStore
from repro.query.planner import execute_poi_plan, plan_poi_aggregate
from repro.query.poi import poi_visit_counts, resolve_poi
from repro.query.region import EvaluationContext
from repro.synth.paperdata import figure1_instance

from tests.poi.conftest import canon
from tests.poi.oracle import poi_cells

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
        rolled, rolled_dwell, _ = fig1_store.rollup_space(mapping)
        visits = fig1_store.visit_counts()
        assert sum(rolled.values()) == sum(visits.values())
        dwell = fig1_store.dwell_times()
        assert abs(
            sum(rolled_dwell.values()) - sum(dwell.values())
        ) < 1e-12

    def test_rollup_unions_visitor_sets(self, fig1_world, fig1_store):
        mapping = {gid: "everywhere" for gid in fig1_store.gids}
        visitors = fig1_store.distinct_visitors()
        _, _, rolled = fig1_store.rollup_space(mapping)
        for (_, member), oids in rolled.items():
            assert list(oids) == sorted(set(oids), key=repr)
            assert set(oids) == set().union(
                *(v for (_, m), v in visitors.items() if m == member)
            )

    def test_rollup_rejects_unmapped_gid(self, fig1_store):
        with pytest.raises(RollupError):
            fig1_store.rollup_space({})

    def test_drilldown_inverts_rollup(self, fig1_world, fig1_store):
        mapping = poi_parent_mapping(fig1_world.gis, "Lp", "Ln")
        visits = fig1_store.visit_counts()
        rolled, _, _ = fig1_store.rollup_space(mapping)
        for parent in {parent for parent, _ in rolled}:
            down = spatial_drilldown(visits, mapping, parent)
            again = {}
            for (_, member), n in down.items():
                again[parent, member] = again.get((parent, member), 0) + n
            assert again == {
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
        members = fig1_store.partition.members
        cells = poi_cells(
            fig1_store.moft, fig1_store.time, "hour", fig1_store.pois
        )
        expected = in_key_order(
            reference_reads(cells, members, up=mapping), members
        )
        for got, want in zip(fig1_store.rollup_space(mapping), expected):
            same(got, want)


class TestQueryLayer:
    def test_resolve_pois_typed_error(self, fig1_context):
        with pytest.raises(EvaluationError):
            resolve_poi(fig1_context, "Ln", "hour", moft_name="FMbus")

    def test_builder_full_chain(self, fig1_context):
        with ShardedExecutor("serial", n_shards=2) as executor:
            sharded = poi_visit_counts(
                fig1_context, "Lp", "hour", moft_name="FMbus",
                min_dwell=0.0, strategy="sharded", executor=executor,
            )
        serial = poi_visit_counts(
            fig1_context, "Lp", "hour", moft_name="FMbus", strategy="serial"
        )
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
        # No executor, no store: the scan, and no fan-out priced beside it.
        assert plan.strategy == "serial"
        assert "sharded" not in dict(plan.alternatives)
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
        assert plan.leaf.store is store
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

    @pytest.mark.parametrize(
        "measure, k, message",
        [("median", None, "unknown POI measure"), ("topk", None, "needs k")],
    )
    def test_planner_refuses_a_bad_measure(
        self, fig1_context, measure, k, message
    ):
        """Refused at planning, before anything is priced or scanned."""
        with pytest.raises(EvaluationError, match=message):
            plan_poi_aggregate(
                fig1_context, "Lp", "hour", moft_name="FMbus",
                measure=measure, k=k,
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


# -- reads off the row table vs an independent fold ---------------------------------


def reference_reads(cells, members, parent_of=None, up=None):
    """``visit_counts`` / ``dwell_times`` / ``distinct_visitors`` as the
    plain dict fold the row table replaced: objects, then each object's
    cells, in sorted-``repr`` order.  For a roll-up, ``parent_of`` maps a
    granule code to the code of ``members`` one level up and ``up`` a
    POI id to its spatial parent."""
    visits, dwell, visitors = {}, {}, {}
    for oid in sorted(cells, key=repr):
        for gid, code in sorted(cells[oid], key=lambda k: (repr(k[0]), k[1])):
            n, d = cells[oid][gid, code]
            key = (
                gid if up is None else up[gid],
                members[code if parent_of is None else parent_of[code]],
            )
            if n:
                visits[key] = visits.get(key, 0) + n
            if d:
                dwell[key] = dwell.get(key, 0.0) + d
            if oid not in visitors.setdefault(key, []):
                visitors[key].append(oid)
    return visits, dwell, {key: tuple(v) for key, v in visitors.items()}


def in_key_order(reads, members):
    """``reads`` re-keyed in roll-up order: by ``repr`` of the (parent)
    id, then the granule's position in ``members``."""
    code = {member: i for i, member in enumerate(members)}

    def order(item):
        (gid, member), _ = item
        return repr(gid), code[member]

    return tuple(dict(sorted(read.items(), key=order)) for read in reads)


def same(got, want):
    """Equal values (floats by ``==``) under equal keys in equal order."""
    assert list(got.items()) == list(want.items())


def assert_reads_equal_reference(store, parent_level):
    cells = poi_cells(
        store.moft, store.time, store.granule_level, store.pois,
        min_dwell=store.min_dwell, radius=store.radius,
    )
    members = store.partition.members
    visits, dwell, visitors = reference_reads(cells, members)
    same(store.visit_counts(), visits)
    same(store.dwell_times(), dwell)
    same(store.distinct_visitors(), visitors)
    for k in (1, 3, len(store.pois) + 5):
        ranked = {}
        for member in members:
            ranking = sorted(
                ((gid, len(v)) for (gid, m), v in visitors.items() if m == member),
                key=lambda item: (-item[1], repr(item[0])),
            )
            if ranking:
                ranked[member] = tuple(ranking[:k])
        same(store.topk(k), ranked)
    parent, mapping = store.partition.rollup_codes(store.time, parent_level)
    rolled = store.rollup_cells(parent_level)
    assert rolled[0] is parent
    for got, want in zip(rolled[1:], in_key_order(
        reference_reads(cells, parent.members, mapping.tolist()),
        parent.members,
    )):
        same(got, want)
    up = {gid: i % 3 for i, gid in enumerate(store.gids)}
    for got, want in zip(store.rollup_space(up), in_key_order(
        reference_reads(cells, members, up=up), members
    )):
        same(got, want)
    keyed = in_key_order((visits, dwell, visitors), members)
    assert list(store.as_cube().fact_table.rows()) == [
        {
            "granule": member, "poi": gid,
            "visits": keyed[0].get((gid, member), 0),
            "dwell": keyed[1].get((gid, member), 0.0),
            "distinct_visitors": len(oids),
        }
        for (gid, member), oids in keyed[2].items()
    ]
    stats = store.stats()
    assert stats["objects"] == len(cells) == len(store._objects())
    assert stats["cells"] == len({key for c in cells.values() for key in c})
    assert stats["visits"] == sum(visits.values())
    assert json.loads(json.dumps(stats)) == stats
    return visits, dwell, visitors


@pytest.fixture(params=["fig1", "city"])
def world(request, fig1_world, city_world):
    """``(copy of the table, time, pois, level, parent level, the centre
    of one POI)`` — a private table per test: these tests append."""
    if request.param == "fig1":
        source, time, level, parent = fig1_world.moft, fig1_world.time, "hour", "day"
        pois = dict(fig1_world.gis.layer("Lp").elements("poi"))
    else:
        _, pois, time, source = city_world
        level, parent = "day", "month"
    moft = MOFT.from_columns(list(source.oid_column()), *source.as_arrays())
    centre = pois[sorted(pois, key=repr)[0]].center
    return moft, time, pois, level, parent, (centre.x, centre.y)


def append_visits(moft, at):
    """A new object parks at ``at``, a known one returns there later."""
    known = sorted(moft.objects(), key=repr)[0]
    end = moft.time_range()[1]
    moft.extend_columns(
        ["newcomer", "newcomer", known, known],
        [end - 2.0, end - 1.0, end + 1.0, end + 2.5],
        [at[0]] * 4, [at[1]] * 4,
    )


class TestReadsAgainstReferenceFold:
    def test_fresh_build(self, world):
        moft, time, pois, level, parent, _ = world
        store = PoiVisitStore(moft, time, level, pois, layer="Lp")
        visits, _, _ = assert_reads_equal_reference(store, parent)
        assert visits

    def test_after_delta_update(self, world):
        moft, time, pois, level, parent, at = world
        store = PoiVisitStore(moft, time, level, pois, layer="Lp")
        before = store.stats()
        append_visits(moft, at)
        assert store.update() == "delta"
        assert_reads_equal_reference(store, parent)
        assert store.stats()["visits"] > before["visits"]
        assert "newcomer" in store._objects()

    def test_clone_then_update_leaves_the_pinned_store_alone(self, world):
        moft, time, pois, level, parent, at = world
        store = PoiVisitStore(moft, time, level, pois, layer="Lp")
        pinned = assert_reads_equal_reference(store, parent)
        table = store._table
        grown = MOFT.from_columns(list(moft.oid_column()), *moft.as_arrays())
        append_visits(grown, at)
        clone = store.clone(moft=grown)
        assert clone._table is table
        assert clone.update() == "delta"
        assert_reads_equal_reference(clone, parent)
        # The fold went into new arrays; the pinned table is untouched.
        assert store._table is table
        for mine, theirs in zip(table[1:], clone._table[1:]):
            assert not np.shares_memory(mine, theirs)
        for got, want in zip(assert_reads_equal_reference(store, parent), pinned):
            same(got, want)

    def test_three_way_merge_in_any_order(self, world):
        moft, time, pois, level, parent, _ = world
        shards = [
            PoiVisitStore(part, time, level, pois, layer="Lp")
            for part in moft.partition_by_objects(3)
        ]
        # Every shard interns its own objects from code 0.
        assert sum(len(s._objects()) > 0 for s in shards) >= 2
        whole = PoiVisitStore(moft, time, level, pois, layer="Lp")
        for order in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
            merged = PoiVisitStore.merge([shards[i] for i in order], moft)
            assert_reads_equal_reference(merged, parent)
            assert merged._objects() == whole._objects()
            for mine, theirs in zip(merged._table[1:], whole._table[1:]):
                assert np.array_equal(mine, theirs)

    def test_out_of_order_append_removes_an_only_stop(self, world):
        """``ghost`` sits at a POI over [t, t + 2]: one stop.  A sample
        in between, far away, leaves two grazes under ``min_dwell``."""
        moft, time, pois, level, parent, at = world
        start = moft.time_range()[0]
        moft.extend_columns(
            ["ghost", "ghost"], [start, start + 2.0], [at[0]] * 2, [at[1]] * 2
        )
        store = PoiVisitStore(moft, time, level, pois, layer="Lp", min_dwell=1.0)
        assert_reads_equal_reference(store, parent)
        held = store._objects()
        assert "ghost" in held
        moft.add("ghost", start + 1.0, at[0] + 1e6, at[1])
        assert store.update() == "delta"
        assert_reads_equal_reference(store, parent)
        assert store._objects() == tuple(o for o in held if o != "ghost")
        assert not any(
            "ghost" in oids for oids in store.distinct_visitors().values()
        )
