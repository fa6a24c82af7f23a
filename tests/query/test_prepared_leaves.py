"""Prepared leaves: a context resolves each spec once per state.

:meth:`~repro.query.region.EvaluationContext.prepared` keeps the leaf of
every resolved spec and hands it out again while the table, the Time
dimension, the geometries and the registered stores stay as they were.
Pinned here:

* **a repeat hits** — the same query again counts a
  ``prepared_leaf_hits``, gives the same answer and moves
  ``preagg_hits`` / ``preagg_misses`` as the first call did, for every
  front-end;
* **every change misses** — a table append, ``register_preagg``, a
  store refresh, a Time-dimension edit, a geometry added, another
  ingest snapshot, and a spec that differs in ``use_preagg``, window or
  DURING instants each resolve again, and answer what a fresh context
  answers;
* **no cycle** — a context holding entries is freed by reference
  counting alone;
* **the price is held** — a repeated plan reuses the leaf's one price
  slot; a first fan-out (the executor now holds the table), a geometry
  index that fills and an unequal cost model price again, an equal one
  does not; a warm ``total_dwell_time`` builds no plan node; EXPLAIN
  reads as a fresh plan's.
"""

from __future__ import annotations

import gc
import re
import weakref
from collections import Counter

import pytest

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.gis import NODE, POI, POLYGON, POLYLINE
from repro.ingest import IngestConfig, StoreSpec, StreamingIngestor
from repro.parallel import ShardedExecutor
from repro.pietql import LayerBinding, PietQLExecutor
from repro.poi import PoiVisitStore
from repro.preagg import PreAggStore
from repro.query.aggregate import total_dwell_time
from repro.query.evaluator import count_objects_through, resolve_through
from repro.query import planner
from repro.query.planner import CostModel, plan, planned_count_objects_through
from repro.query.poi import poi_topk, poi_visit_counts
from repro.query.region import EvaluationContext
from repro.service import QuerySpec, load_world
from repro.service.worker import execute_spec
from repro.synth import figure1_instance

TARGET = ("Ln", POLYGON)
CONSTRAINTS = [("intersects", ("Lr", POLYLINE)), ("contains", ("Ls", NODE))]
BINDINGS = {
    "neighborhoods": LayerBinding("Ln", POLYGON),
    "rivers": LayerBinding("Lr", POLYLINE),
    "schools": LayerBinding("Ls", NODE),
}
PIETQL = (
    "SELECT layer.neighborhoods FROM Fig1 "
    "WHERE contains(layer.neighborhoods, layer.schools) "
    "| COUNT OBJECTS FROM FMbus THROUGH RESULT DURING hour = '3'"
)
COUNTERS = ("prepared_leaf_hits", "prepared_leaf_misses", "preagg_hits",
            "preagg_misses", "poi_preagg_hits", "poi_preagg_misses")


def fig1_context(stores: bool = True, polygons=None):
    """Figure 1 with its POIs and (``stores``) an hour store over
    ``polygons`` of ``Ln`` (default: all) and one over the POIs."""
    context = figure1_instance(with_pois=True).context()
    if stores:
        moft = context.moft("FMbus")
        elements = context.gis.layer("Ln").elements(POLYGON)
        if polygons is not None:
            elements = {gid: elements[gid] for gid in polygons}
        context.register_preagg(PreAggStore(
            moft, context.time, "hour", elements, layer="Ln", kind=POLYGON,
        ))
        context.register_preagg(PoiVisitStore(
            moft, context.time, "hour",
            dict(context.gis.layer("Lp").elements(POI)), layer="Lp",
        ))
    return context


def through(context, **options):
    return count_objects_through(
        context, TARGET, CONSTRAINTS, moft_name="FMbus", **options
    )


def scanned(context, **options):
    """The oracle: the plain scan on a new context over the same
    dimensions and table, which has nothing prepared."""
    fresh = EvaluationContext(
        context.gis, context.time, {"FMbus": context.moft("FMbus")}
    )
    return through(fresh, use_preagg=False, **options)


def counts(context):
    return {name: context.obs.count(name) for name in COUNTERS}


def delta(context, call):
    before = counts(context)
    answer = call(context)
    after = counts(context)
    return answer, {name: after[name] - before[name] for name in COUNTERS}


FRONT_ENDS = {
    "count_objects_through": through,
    "count_objects_through-window": lambda c: through(c, window=(1.5, 4.5)),
    "planned_count_objects_through": lambda c: planned_count_objects_through(
        c, TARGET, CONSTRAINTS, moft_name="FMbus"
    )[0],
    "total_dwell_time": lambda c: total_dwell_time(
        c, TARGET, CONSTRAINTS, moft_name="FMbus", window=(1.0, 3.0)
    ),
    "poi_visit_counts": lambda c: poi_visit_counts(
        c, "Lp", "hour", moft_name="FMbus"
    ),
    "poi_topk": lambda c: poi_topk(c, "Lp", "hour", 2, moft_name="FMbus"),
    "pietql": lambda c: PietQLExecutor(c, BINDINGS).execute(PIETQL).count,
}


class TestRepeatHits:
    @pytest.mark.parametrize(
        "stores", ["served", "missed", "none"],
    )
    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    def test_repeat_equals_the_first_call(self, front_end, stores):
        # "missed": the polygon store holds one neighbourhood, so no
        # through or dwell answer is materialized in it.
        context = fig1_context(
            stores != "none",
            ["pg_zuid"] if stores == "missed" else None,
        )
        call = FRONT_ENDS[front_end]
        first, moved = delta(context, call)
        assert moved["prepared_leaf_misses"] == 1
        assert moved["prepared_leaf_hits"] == 0
        again, moved_again = delta(context, call)
        assert again == first
        assert moved_again["prepared_leaf_hits"] == 1
        assert moved_again["prepared_leaf_misses"] == 0
        for name in COUNTERS[2:]:
            assert moved_again[name] == moved[name], name
        if stores == "served":
            assert moved["preagg_hits"] + moved["poi_preagg_hits"] == 1
        if stores == "missed" and not front_end.startswith("poi"):
            assert moved["preagg_misses"] == 1

    def test_a_hit_answers_no_subquery(self):
        context = fig1_context()
        leaf = resolve_through(context, TARGET, CONSTRAINTS, "FMbus")
        stages = context.obs.stages["geometric_subquery"].calls
        again = resolve_through(context, TARGET, CONSTRAINTS, "FMbus")
        assert context.obs.stages["geometric_subquery"].calls == stages
        assert again is not leaf and again.context is context
        assert again.ids == leaf.ids and again.store is leaf.store
        assert again.geosub_seconds == 0.0


class TestEveryChangeMisses:
    def test_table_append(self):
        context = fig1_context()
        through(context)
        context.moft("FMbus").add("O1", 7.0, 5.0, 5.0)
        answer, moved = delta(context, through)
        assert moved["prepared_leaf_misses"] == 1
        assert answer == scanned(context)

    def test_register_preagg(self):
        context = fig1_context(stores=False)
        through(context)
        assert delta(context, through)[1]["prepared_leaf_hits"] == 1
        moft = context.moft("FMbus")
        context.register_preagg(PreAggStore(
            moft, context.time, "hour",
            context.gis.layer("Ln").elements(POLYGON),
            layer="Ln", kind=POLYGON,
        ))
        answer, moved = delta(context, through)
        assert moved["prepared_leaf_misses"] == 1
        assert moved["preagg_hits"] == 1
        assert answer == scanned(context)

    def test_time_edit_then_store_refresh(self):
        context = fig1_context()
        store = context._preagg_stores[0]
        through(context, window=(1.0, 3.0))
        context.time.instance.set_rollup("hour", 99, "timeOfDay", "Other")
        assert store.is_stale()
        answer, moved = delta(context, lambda c: through(c, window=(1.0, 3.0)))
        assert moved["prepared_leaf_misses"] == 1
        assert moved["preagg_hits"] == 0 and moved["preagg_misses"] == 1
        assert answer == scanned(context, window=(1.0, 3.0))
        store.refresh()
        answer, moved = delta(context, lambda c: through(c, window=(1.0, 3.0)))
        assert moved["prepared_leaf_misses"] == 1
        assert moved["preagg_hits"] == 1
        assert answer == scanned(context, window=(1.0, 3.0))

    def test_store_update_serves_again(self):
        context = fig1_context()
        store = context._preagg_stores[0]
        through(context)
        context.time.instance.set_rollup("hour", 98, "timeOfDay", "Other")
        assert delta(context, through)[1]["preagg_misses"] == 1
        assert store.update() == "rebuild"
        answer, moved = delta(context, through)
        assert moved["prepared_leaf_misses"] == 1
        assert moved["preagg_hits"] == 1
        assert answer == scanned(context)

    def test_geometry_added(self):
        context = fig1_context()
        through(context)
        context.gis.add_geometry("Ln", POLYGON, "pg_far", Polygon([
            Point(500.0, 500.0), Point(510.0, 500.0), Point(510.0, 510.0),
        ]))
        answer, moved = delta(context, through)
        assert moved["prepared_leaf_misses"] == 1
        assert answer == scanned(context)

    def test_ingest_snapshots_never_share_an_entry(self):
        base = figure1_instance().context()
        rows = sorted(base.moft("FMbus").tuples(), key=lambda row: row[1])
        ingestor = StreamingIngestor(
            base.gis, base.time, config=IngestConfig(allowed_lateness=1),
            store_specs=(StoreSpec("hour", "Ln", POLYGON),),
            moft_name="FMbus",
        )
        for part in ([r for r in rows if r[1] <= 3.0],
                     [r for r in rows if r[1] > 3.0]):
            ingestor.submit(*map(list, zip(*part)))
            if part[0][1] == rows[0][1]:
                early = ingestor.snapshot().context()
        final = ingestor.close().context()
        assert early is not final
        for context in (early, final):
            answer, moved = delta(context, through)
            assert moved["prepared_leaf_misses"] == 1
            assert answer == scanned(context)
            assert delta(context, through)[1]["prepared_leaf_hits"] == 1
        assert through(final) == through(base, use_preagg=False)

    @pytest.mark.parametrize("spec", [
        dict(use_preagg=False),
        dict(window=(1.0, 3.0)),
        dict(window=(1.0, 4.0)),
        dict(instants={2.0, 3.0}),
        dict(instants={2.0}),
    ])
    def test_spec_differing(self, spec):
        context = fig1_context()
        resolve_through(context, TARGET, CONSTRAINTS, "FMbus")
        _, moved = delta(context, lambda c: resolve_through(
            c, TARGET, CONSTRAINTS, "FMbus", **spec
        ))
        assert moved["prepared_leaf_misses"] == 1
        _, moved = delta(context, lambda c: resolve_through(
            c, TARGET, CONSTRAINTS, "FMbus", **spec
        ))
        assert moved["prepared_leaf_hits"] == 1


class TestNoCycle:
    def test_context_is_freed_by_reference_counting(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            context = fig1_context()
            for call in FRONT_ENDS.values():
                call(context)
                call(context)
            assert context.obs.count("prepared_leaf_hits") >= len(FRONT_ENDS)
            ref = weakref.ref(context)
            del context
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


# -- the held price --------------------------------------------------------------


@pytest.fixture
def pricings(monkeypatch):
    """How often each kind's cost terms ran."""
    calls = Counter()
    for name in ("_geometric_terms", "_poi_terms"):
        original = getattr(planner, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(planner, name, counted)
    return calls


def leaf_of(context, **options):
    return resolve_through(context, TARGET, CONSTRAINTS, "FMbus", **options)


def summary(chosen):
    return chosen.strategy, chosen.est_cost, chosen.alternatives


def masked(text):
    return re.sub(r"actual_s=\d+\.\d+", "actual_s=*", text)


class TestHeldPrice:
    @pytest.mark.parametrize("stores", [True, False])
    def test_a_repeated_plan_reuses_the_slot(self, pricings, stores):
        context = fig1_context(stores)
        first = plan(leaf_of(context))
        slot = leaf_of(context).held["price"]
        for _ in range(3):
            assert summary(plan(leaf_of(context))) == summary(first)
        assert leaf_of(context).held["price"] is slot
        assert pricings["_geometric_terms"] == 1

    def test_a_poi_plan_reuses_the_slot(self, pricings):
        context = fig1_context()
        for _ in range(3):
            poi_visit_counts(context, "Lp", "hour", moft_name="FMbus")
        assert pricings["_poi_terms"] == 1

    def test_a_first_fanout_prices_again(self, pricings):
        context = fig1_context(stores=False)
        # (The answer's index first, so that only residency moves.)
        plan(leaf_of(context), force_strategy="grid").execute()
        pricings.clear()
        with ShardedExecutor("serial", n_shards=2) as executor:
            first = plan(leaf_of(context), executor, force_strategy="sharded")
            assert not executor.holds_shards(context.moft("FMbus"))
            first.execute(executor)
            assert executor.holds_shards(context.moft("FMbus"))
            assert pricings["_geometric_terms"] == 1
            again = plan(leaf_of(context), executor, force_strategy="sharded")
            assert pricings["_geometric_terms"] == 2
            assert summary(again) == summary(first)  # (serial: no ship cost)
            plan(leaf_of(context), executor, force_strategy="sharded")
            assert pricings["_geometric_terms"] == 2

    def test_a_filled_index_prices_again(self, pricings):
        context = fig1_context(stores=False)
        first = plan(leaf_of(context), force_strategy="grid")
        assert "index_cached=False" in first.render()
        first.execute()
        again = plan(leaf_of(context), force_strategy="grid")
        assert "index_cached=True" in again.render()
        assert again.est_cost < first.est_cost
        assert pricings["_geometric_terms"] == 2

    def test_cost_models_by_value(self, pricings):
        context = fig1_context(stores=False)
        costly = plan(leaf_of(context), cost_model=CostModel(check_cost=2.0))
        same = plan(leaf_of(context), cost_model=CostModel(check_cost=2.0))
        assert summary(same) == summary(costly)
        assert pricings["_geometric_terms"] == 1
        other = plan(leaf_of(context), cost_model=CostModel(check_cost=3.0))
        assert pricings["_geometric_terms"] == 2
        assert other.est_cost != costly.est_cost

    def test_a_warm_dwell_builds_no_plan_node(self, monkeypatch):
        context = fig1_context()
        built = []

        class Spy(planner.PlanNode):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(planner, "PlanNode", Spy)
        dwell = dict(moft_name="FMbus", window=(1.0, 3.0))
        first = total_dwell_time(context, TARGET, CONSTRAINTS, **dwell)
        assert total_dwell_time(context, TARGET, CONSTRAINTS, **dwell) == first
        assert built == []
        # (The spy sees the nodes a tree is built from.)
        plan(leaf_of(context, window=(1.0, 3.0), kind="dwell")).render()
        assert built

    @pytest.mark.parametrize("window", [None, (1.5, 4.5)])
    def test_execute_spec_explains_as_a_fresh_plan(self, window):
        spec = QuerySpec.through(TARGET, CONSTRAINTS, "FMbus", window=window)
        world = load_world("fig1")
        texts = [masked(execute_spec(spec, world)[1]) for _ in range(3)]
        # (The first scan fills the answer's index: a live change.)
        assert texts[1] == texts[2]
        fresh = load_world("fig1")
        layer = TARGET[0]
        fresh.context.gis.layer(layer)._indexes.update(
            world.context.gis.layer(layer)._indexes
        )
        assert masked(execute_spec(spec, fresh)[1]) == texts[1]
