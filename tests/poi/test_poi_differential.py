"""The three-way POI differential oracle.

One semantic, three execution routes — the serial segmentation pass,
the object-sharded build + merge on a :class:`~repro.parallel
.ShardedExecutor` (both backends), and the registered pre-aggregation
store — must answer **byte-identically** as canonical JSON for every
measure: visit counts, dwell, distinct-visitor sets and the
tie-broken top-k ranking.  The oracle also covers the two maintenance
worlds: a store kept fresh through :meth:`~repro.poi.PoiVisitStore
.update` after appends, and a store maintained by the streaming
ingestor across watermark flushes and compactions.
"""

from __future__ import annotations

import pytest

from repro.errors import EvaluationError
from repro.ingest import IngestConfig, StoreSpec, StreamingIngestor
from repro.mo.moft import MOFT
from repro.parallel import ShardedExecutor, ShardedPietQLExecutor
from repro.pietql import PietQLExecutor
from repro.poi import PoiVisitStore
from repro.query.planner import plan_poi_aggregate
from repro.query.poi import (
    poi_distinct_visitors,
    poi_dwell_times,
    poi_store_view,
    poi_topk,
    poi_visit_counts,
)
from repro.query.region import EvaluationContext

from tests.poi.conftest import canon

pytestmark = pytest.mark.poi

MEASURES = (
    ("visits", poi_visit_counts, {}),
    ("visitors", poi_distinct_visitors, {}),
    ("dwell", poi_dwell_times, {}),
    ("topk", poi_topk, {"k": 3}),
)


def answers(context, layer, granule, moft_name, **options):
    """Every measure under one strategy, rendered canonical."""
    out = {}
    for name, fn, extra in MEASURES:
        out[name] = canon(
            fn(context, layer, granule, moft_name=moft_name, **extra, **options)
        )
    return out


def assert_three_way(gis, time, moft, layer, granule, moft_name):
    """serial == sharded(xN, both backends) == preagg, byte for byte."""
    serial_ctx = EvaluationContext(gis, time, moft)
    reference = answers(
        serial_ctx, layer, granule, moft_name, strategy="serial"
    )
    for backend in ("serial", "processes"):
        executor = ShardedExecutor(backend)
        try:
            for shards in (1, 2, 3):
                executor.n_shards = shards
                sharded_ctx = EvaluationContext(gis, time, moft)
                got = answers(
                    sharded_ctx,
                    layer,
                    granule,
                    moft_name,
                    strategy="sharded",
                    executor=executor,
                )
                assert got == reference, (shards, backend)
        finally:
            executor.close()
    preagg_ctx = EvaluationContext(gis, time, moft)
    store = PoiVisitStore(
        moft,
        time,
        granule,
        dict(gis.layer(layer).elements("poi")),
        layer=layer,
        obs=preagg_ctx.obs,
    )
    preagg_ctx.register_preagg(store)
    got = answers(preagg_ctx, layer, granule, moft_name, strategy="preagg")
    assert got == reference
    assert preagg_ctx.obs.counters["poi_preagg_hits"] == len(MEASURES)
    return reference


class TestThreeWay:
    def test_fig1(self, fig1_world):
        assert_three_way(
            fig1_world.gis,
            fig1_world.time,
            fig1_world.moft,
            "Lp",
            "hour",
            "FMbus",
        )

    @pytest.mark.parametrize("min_dwell", [0.0, 1.5])
    def test_fig1_min_dwell(self, fig1_world, min_dwell):
        ctx = fig1_world.context()
        serial = canon(
            poi_visit_counts(
                ctx, "Lp", "hour", moft_name="FMbus",
                strategy="serial", min_dwell=min_dwell,
            )
        )
        with ShardedExecutor("processes", n_shards=3) as executor:
            sharded = canon(
                poi_visit_counts(
                    ctx, "Lp", "hour", moft_name="FMbus",
                    strategy="sharded", executor=executor,
                    min_dwell=min_dwell,
                )
            )
        assert serial == sharded

    def test_city_10k(self, city_world):
        city, _, time_dim, moft = city_world
        assert len(moft) == 10_000
        assert_three_way(city.gis, time_dim, moft, "Lp", "day", "FM")

    def test_preagg_strict_without_store_is_typed(self, fig1_context):
        with pytest.raises(EvaluationError):
            poi_visit_counts(
                fig1_context, "Lp", "hour", moft_name="FMbus",
                strategy="preagg",
            )


class TestUnforcedPick:
    """Nothing fans out that was not handed an executor (the unforced
    plan used to take a thread-pool fan-out slower than the scan)."""

    def test_plan_without_executor_is_the_scan(self, fig1_world, city_world):
        city, _, time_dim, moft = city_world
        for context, granule, name in (
            (fig1_world.context(), "hour", "FMbus"),
            (EvaluationContext(city.gis, time_dim, moft), "day", "FM"),
        ):
            plan = plan_poi_aggregate(context, "Lp", granule, moft_name=name)
            assert plan.strategy == "serial"
            assert "sharded" not in dict(plan.alternatives)

    def test_pietql_fans_out_only_on_a_sharded_executor(self, city_world):
        city, _, time_dim, moft = city_world
        text = (
            "EXPLAIN SELECT layer.Lp FROM City "
            "| TOP 3 FROM FM AT layer.Lp BY day"
        )
        plain = PietQLExecutor(
            EvaluationContext(city.gis, time_dim, moft)
        ).execute(text)
        aggregate = plain.plan.root
        assert aggregate.op == "PoiAggregate"
        assert [node.op for node in aggregate.children] == ["StopSegmentScan"]
        executor = ShardedPietQLExecutor(
            EvaluationContext(city.gis, time_dim, moft),
            backend="processes", n_shards=2,
        )
        try:
            fanned = executor.execute(text)
        finally:
            executor.sharded.close()
        (body,) = fanned.plan.root.children
        # (Which of the two the cost model takes is its business.)
        assert body.op == "StopSegmentScan" or (
            f"{body.op}[{body.detail}]"
            == "ShardedSegmentScan[processes x2 + merge]"
        )
        assert canon(fanned.poi_result) == canon(plain.poi_result)


class TestIncrementalUpdate:
    """Appends folded by update() answer like a from-scratch build."""

    def _worlds(self, fig1_world):
        moft = MOFT("FMbus")
        for oid, t, x, y in zip(
            fig1_world.moft.oid_column(), *fig1_world.moft.as_arrays()
        ):
            moft.add(oid, float(t), float(x), float(y))
        return fig1_world.gis, fig1_world.time, moft

    def test_update_matches_rebuild(self, fig1_world):
        gis, time, moft = self._worlds(fig1_world)
        pois = dict(gis.layer("Lp").elements("poi"))
        store = PoiVisitStore(moft, time, "hour", pois, layer="Lp")
        assert store.update() == "fresh"
        # O1 keeps dwelling at the south school; a new bus parks at the
        # market for two instants.
        moft.add("O1", 5.0, 5.0, 5.0)
        moft.add("O7", 4.0, 10.0, 10.0)
        moft.add("O7", 5.0, 10.5, 10.0)
        assert store.is_stale()
        assert store.update() == "delta"
        fresh = PoiVisitStore(moft, time, "hour", pois, layer="Lp")
        assert canon(store.visit_counts()) == canon(fresh.visit_counts())
        assert canon(store.dwell_times()) == canon(fresh.dwell_times())
        assert canon(store.distinct_visitors()) == canon(
            fresh.distinct_visitors()
        )
        assert canon(store.topk(3)) == canon(fresh.topk(3))

    def test_updated_store_serves_planner_route(self, fig1_world):
        gis, time, moft = self._worlds(fig1_world)
        ctx = EvaluationContext(gis, time, moft)
        pois = dict(gis.layer("Lp").elements("poi"))
        store = PoiVisitStore(
            moft, time, "hour", pois, layer="Lp", obs=ctx.obs
        )
        ctx.register_preagg(store)
        moft.add("O1", 5.0, 5.0, 5.0)
        # Stale: the auto strategy must fall back to a live build...
        _, used = poi_store_view(ctx, "Lp", "hour", moft_name="FMbus")
        assert used in ("serial", "sharded")
        assert ctx.obs.counters["poi_preagg_misses"] == 1
        # ...and after update() the pre-agg route serves again,
        # byte-identical to serial.
        store.update()
        preagg = canon(
            poi_visit_counts(
                ctx, "Lp", "hour", moft_name="FMbus", strategy="preagg"
            )
        )
        serial = canon(
            poi_visit_counts(
                ctx, "Lp", "hour", moft_name="FMbus", strategy="serial"
            )
        )
        assert preagg == serial


class TestStreamingIngest:
    """The ingestor-maintained store equals a one-shot batch build."""

    def _stream(self, fig1_world, batches):
        ing = StreamingIngestor(
            fig1_world.gis,
            fig1_world.time,
            moft_name="FMbus",
            store_specs=(StoreSpec("hour", "Lp", "poi"),),
            config=IngestConfig(allowed_lateness=0.0, compact_every=2),
        )
        for rows in batches:
            oids, ts, xs, ys = zip(*rows)
            ing.submit(oids, ts, xs, ys)
        ing.close()
        return ing

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("split_t", [2.0, 3.0, 4.0])
    def test_streamed_equals_batch(self, fig1_world, seed, split_t):
        import random

        rows = sorted(
            (
                (oid, float(t), float(x), float(y))
                for oid, t, x, y in zip(
                    fig1_world.moft.oid_column(),
                    *fig1_world.moft.as_arrays(),
                )
            ),
            key=lambda s: s[1],
        )
        early = [s for s in rows if s[1] <= split_t]
        late = [s for s in rows if s[1] > split_t]
        r = random.Random(seed)
        r.shuffle(early)
        r.shuffle(late)
        ing = self._stream(fig1_world, (early, late))
        snap = ing.snapshot()
        streamed = next(
            s for s in snap.stores if isinstance(s, PoiVisitStore)
        )
        assert not streamed.is_stale()
        batch = PoiVisitStore(
            fig1_world.moft,
            fig1_world.time,
            "hour",
            dict(fig1_world.gis.layer("Lp").elements("poi")),
            layer="Lp",
        )
        assert canon(streamed.visit_counts()) == canon(batch.visit_counts())
        assert canon(streamed.dwell_times()) == canon(batch.dwell_times())
        assert canon(streamed.distinct_visitors()) == canon(
            batch.distinct_visitors()
        )
        assert canon(streamed.topk(3)) == canon(batch.topk(3))

    def test_snapshot_context_routes_preagg(self, fig1_world):
        rows = sorted(
            (
                (oid, float(t), float(x), float(y))
                for oid, t, x, y in zip(
                    fig1_world.moft.oid_column(),
                    *fig1_world.moft.as_arrays(),
                )
            ),
            key=lambda s: s[1],
        )
        ing = self._stream(fig1_world, (rows,))
        ctx = ing.snapshot().context()
        got = canon(
            poi_visit_counts(ctx, "Lp", "hour", moft_name="FMbus")
        )
        assert ctx.obs.counters["poi_preagg_hits"] == 1
        reference = canon(
            poi_visit_counts(
                fig1_world.context(), "Lp", "hour", moft_name="FMbus",
                strategy="serial",
            )
        )
        assert got == reference
