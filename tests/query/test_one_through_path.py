"""One through-count path: resolve once, plan, execute.

Every front-end of the through-count (the function API, the cost-based
planner, Piet-QL) runs on the operands one
:func:`repro.query.evaluator.resolve_through` call resolves.  Pinned
here:

* **resolve once** — one planned count and one Piet-QL ``THROUGH
  RESULT`` each answer the geometric subquery once, look a store up
  once and compute the sliver mask at most once;
* a **store-served Piet-QL count builds no restricted table**;
* the **observer rule** — the scan figures of one execution reach
  ``stats`` when passed, else the executor's observer when a fan-out
  ran, else the context observer, each at most once, and equal the
  plan's node actuals;
* **EXPLAIN changes nothing about the run** Piet-QL makes — same fan-out,
  same shard count, an empty answer included;
* **the service path plans Piet-QL** — a spec on the default
  ``serial`` executor is priced, not fanned out, and answers what both
  Piet-QL executors answer;
* **one shard count, one partition** — a planned count and a Piet-QL
  count on one executor cut the table once, into the executor's shards;
* a plan **refuses to run on a table that changed** after it was made.

The differential guarantees (every strategy, every front-end, the same
answer) live in ``tests/parallel``.
"""

from __future__ import annotations

from collections import Counter
from datetime import datetime

import numpy as np
import pytest

from repro.errors import EvaluationError
from repro.gis import POLYGON, POLYLINE
from repro.mo.moft import MOFT
from repro.obs import EvaluationStats, PipelineStats
from repro.parallel import ShardedExecutor, ShardedPietQLExecutor
from repro.pietql import LayerBinding, PietQLExecutor
from repro.preagg import PreAggStore
from repro.query import evaluator
from repro.query.evaluator import (
    count_objects_through,
    counter_for,
    geometric_subquery,
)
from repro.query.planner import (
    plan_count_objects_through,
    planned_count_objects_through,
)
from repro.query.region import EvaluationContext
from repro.service import QuerySpec, ServiceWorld
from repro.service.spec import canonical_json, result_payload
from repro.service.worker import execute_spec
from repro.synth import CityConfig, build_city
from repro.synth.movement import random_waypoint_moft
from repro.temporal.calendar import hourly
from repro.temporal.timedim import TimeDimension

from tests.query.plans import find

TARGET = ("Ln", POLYGON)
CONSTRAINTS = [("intersects", ("Lr", POLYLINE))]
BINDINGS = {
    "neighborhoods": LayerBinding("Ln", POLYGON),
    "rivers": LayerBinding("Lr", POLYLINE),
}
#: Day 2 of the hourly calendar: instants 24..47, one whole day granule.
DAY2 = "2006-01-10"
ALIGNED = (24.0, 47.0)
MISALIGNED = (30.5, 80.5)
SCAN_FIGURES = ("scan_rows", "segment_checks", "objects_scanned")


def pietql_text(during: str, explain: bool = False, what: str = "OBJECTS") -> str:
    return (
        ("EXPLAIN " if explain else "")
        + "SELECT layer.neighborhoods FROM City "
        "WHERE intersection(layer.neighborhoods, layer.rivers) "
        f"| COUNT {what} FROM FM THROUGH RESULT DURING {during}"
    )


def city_context(with_store: bool) -> EvaluationContext:
    """The 10k-sample synthetic city (a fresh context: tests register
    stores, fill caches and read observer deltas)."""
    city = build_city(
        CityConfig(cols=6, rows=6), rng=np.random.default_rng(20060109)
    )
    moft = random_waypoint_moft(
        city.bounding_box,
        n_objects=100,
        n_instants=100,
        speed=city.config.block_size / 2,
        rng=np.random.default_rng(42),
    )
    time_dim = TimeDimension.from_mapping(
        hourly(datetime(2006, 1, 9, 0, 0)), range(100)
    )
    context = EvaluationContext(city.gis, time_dim, moft)
    if with_store:
        context.register_preagg(
            PreAggStore(
                moft, time_dim, "day",
                city.gis.layer("Ln").elements(POLYGON),
                layer="Ln", kind=POLYGON,
            )
        )
    return context


@pytest.fixture()
def stored():
    return city_context(with_store=True)


@pytest.fixture()
def bare():
    return city_context(with_store=False)


@pytest.fixture()
def calls(monkeypatch):
    """Counting wrappers around the steps a query must take only once."""
    seen: Counter = Counter()

    def counted(owner, name, label):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            seen[label] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(evaluator, "geometric_subquery", "geometric_subquery")
    counted(PietQLExecutor, "execute_geometric", "execute_geometric")
    counted(EvaluationContext, "preagg_for", "preagg_for")
    counted(PreAggStore, "_sliver_scan_mask", "_sliver_scan_mask")
    counted(MOFT, "restrict_instants", "restrict_instants")
    counted(MOFT, "mask_rows", "mask_rows")
    return seen


class TestResolveOnce:
    @pytest.mark.parametrize(
        "window, force, strategy, slivers",
        [
            (ALIGNED, None, "preagg", 0),
            (MISALIGNED, "preagg", "preagg", 1),
            (MISALIGNED, None, None, 1),  # priced once, whatever is picked
        ],
        ids=["aligned", "hybrid", "misaligned-priced"],
    )
    def test_planned_count_with_store(
        self, stored, calls, window, force, strategy, slivers
    ):
        reference = count_objects_through(
            stored, TARGET, CONSTRAINTS, window=window, use_preagg=False
        )
        calls.clear()
        count, plan = planned_count_objects_through(
            stored, TARGET, CONSTRAINTS, window=window, force_strategy=force
        )
        assert count == reference
        if strategy is not None:
            assert plan.strategy == strategy
        assert calls["geometric_subquery"] == 1
        assert calls["preagg_for"] == 1
        assert calls["_sliver_scan_mask"] == slivers

    def test_planned_count_without_store(self, bare, calls):
        count, plan = planned_count_objects_through(
            bare, TARGET, CONSTRAINTS, window=MISALIGNED
        )
        assert count > 0 and plan.strategy in ("serial", "grid")
        assert calls["geometric_subquery"] == 1
        assert calls["preagg_for"] == 1
        assert calls["_sliver_scan_mask"] == 0

    @pytest.mark.parametrize("explain", [False, True], ids=["plain", "explain"])
    @pytest.mark.parametrize(
        "during, served",
        [
            (f"day = '{DAY2}'", True),
            # Hour 5 of every day: cuts through every day granule.
            ("hour = '5'", False),
        ],
        ids=["granule-run", "sub-granule"],
    )
    def test_pietql_with_store(self, stored, calls, during, served, explain):
        hits = stored.obs.count("preagg_hits")
        misses = stored.obs.count("preagg_misses")
        result = PietQLExecutor(stored, BINDINGS).execute(
            pietql_text(during, explain)
        )
        assert result.count > 0
        assert stored.obs.count("preagg_hits") == hits + served
        assert stored.obs.count("preagg_misses") == misses + (not served)
        assert calls["execute_geometric"] == 1
        assert calls["geometric_subquery"] == 1
        assert calls["preagg_for"] == 1
        assert calls["_sliver_scan_mask"] == 0
        if explain:
            assert result.plan.strategy == ("preagg" if served else "grid")

    @pytest.mark.parametrize("explain", [False, True], ids=["plain", "explain"])
    def test_pietql_without_store(self, bare, calls, explain):
        result = PietQLExecutor(bare, BINDINGS).execute(
            pietql_text(f"day = '{DAY2}'", explain)
        )
        assert result.count > 0
        assert calls["execute_geometric"] == 1
        assert calls["preagg_for"] == 1
        assert bare.obs.count("preagg_misses") == 0


class TestStoreServedPietQLBuildsNoTable:
    def test_count_objects_never_restricts_the_table(self, stored, calls):
        scanned = PietQLExecutor(
            city_context(with_store=False), BINDINGS
        ).execute(pietql_text(f"day = '{DAY2}'"))
        calls.clear()
        served = PietQLExecutor(stored, BINDINGS).execute(
            pietql_text(f"day = '{DAY2}'")
        )
        assert served.matched_objects == scanned.matched_objects
        assert stored.obs.count("preagg_hits") == 1
        assert calls["restrict_instants"] == 0
        assert calls["mask_rows"] == 0

    def test_count_samples_reads_the_table_once(self, stored, calls):
        scanned = PietQLExecutor(
            city_context(with_store=False), BINDINGS
        ).execute(pietql_text(f"day = '{DAY2}'", what="SAMPLES"))
        calls.clear()
        served = PietQLExecutor(stored, BINDINGS).execute(
            pietql_text(f"day = '{DAY2}'", what="SAMPLES")
        )
        assert served.count == scanned.count > 0
        assert stored.obs.count("preagg_hits") == 1
        # One bincount over the restricted rows' codes: no child table.
        assert calls["mask_rows"] == 0


def scan_figures(stats: PipelineStats, before=None) -> dict:
    delta = stats.since(before if before is not None else {})
    return {key: delta.get(key, 0) for key in SCAN_FIGURES}


NOTHING = dict.fromkeys(SCAN_FIGURES, 0)


def reference_figures(
    context, window=None, n_shards=None, strategy="grid"
) -> dict:
    """What the scan leaf counts for this query, run on its own."""
    ids = geometric_subquery(context, TARGET, CONSTRAINTS, obs=PipelineStats())
    moft = context.moft("FM")
    counter = counter_for(
        context, TARGET, ids, strategy, PipelineStats(), rows=len(moft)
    )
    if window is not None:
        t, _, _ = moft.as_arrays()
        moft = moft.mask_rows((t >= window[0]) & (t <= window[1]))
    stats = EvaluationStats()
    if n_shards is None:
        counter.matching_objects(moft, stats)
    else:
        ShardedExecutor("serial", n_shards=n_shards).matching_objects(
            counter, moft, stats
        )
    return scan_figures(stats)


class TestObserverRule:
    @pytest.mark.parametrize(
        "strategy, node", [("serial", "SerialScan"), ("grid", "GridScan")]
    )
    def test_unsharded_scan_reaches_the_context_observer(
        self, bare, strategy, node
    ):
        expected = reference_figures(bare, strategy=strategy)
        before = bare.obs.snapshot()
        count, plan = planned_count_objects_through(
            bare, TARGET, CONSTRAINTS, force_strategy=strategy
        )
        seen = scan_figures(bare.obs, before)
        assert seen == expected
        assert seen["scan_rows"] == len(bare.moft("FM"))
        assert find(plan.root, node).actual_rows == seen["scan_rows"]
        assert plan.root.actual_rows == count

    def test_fanout_on_the_context_observer_counts_once(self, bare):
        executor = ShardedExecutor("serial", n_shards=3, obs=bare.obs)
        plan = plan_count_objects_through(
            bare, TARGET, CONSTRAINTS, executor=executor,
            force_strategy="sharded",
        )
        expected = reference_figures(bare, n_shards=plan.shard_count)
        before = bare.obs.snapshot()
        plan.execute(executor)
        seen = scan_figures(bare.obs, before)
        assert seen == expected
        assert seen["scan_rows"] == len(bare.moft("FM"))
        assert find(plan.root, "ShardFanout").actual_rows == seen["scan_rows"]
        assert find(plan.root, "GridScan").actual_rows == seen["scan_rows"]

    def test_fanout_on_its_own_observer_stays_there(self, bare):
        executor = ShardedExecutor("serial", n_shards=3)
        assert executor.obs is not bare.obs
        plan = plan_count_objects_through(
            bare, TARGET, CONSTRAINTS, executor=executor,
            force_strategy="sharded",
        )
        expected = reference_figures(bare, n_shards=plan.shard_count)
        before = bare.obs.snapshot()
        plan.execute(executor)
        assert scan_figures(executor.obs) == expected
        assert scan_figures(bare.obs, before) == NOTHING
        assert (
            find(plan.root, "ShardFanout").actual_rows == expected["scan_rows"]
        )

    def test_hybrid_counts_its_sliver_scan(self, stored):
        reference = count_objects_through(
            stored, TARGET, CONSTRAINTS, window=MISALIGNED, use_preagg=False
        )
        before = stored.obs.snapshot()
        count, plan = planned_count_objects_through(
            stored, TARGET, CONSTRAINTS, window=MISALIGNED,
            force_strategy="preagg",
        )
        assert count == reference
        delta = stored.obs.since(before)
        lookup = find(plan.root, "PreAggLookup")
        sliver = find(plan.root, "SliverScan")
        assert lookup.actual_rows == delta["sliver_scan_rows"]
        # Store-proven objects left the sliver before the scan.
        assert 0 < sliver.actual_rows < lookup.actual_rows
        assert sliver.actual_rows == delta["scan_rows"]
        assert delta["objects_scanned"] > 0
        assert delta["preagg_hits"] == 1

    def test_stats_takes_the_figures_when_passed(self, bare):
        expected = reference_figures(bare)
        stats = EvaluationStats()
        before = bare.obs.snapshot()
        count_objects_through(bare, TARGET, CONSTRAINTS, stats=stats)
        assert scan_figures(stats) == expected
        assert scan_figures(bare.obs, before) == NOTHING

    def test_stats_and_fanout_each_count_once(self, bare):
        expected = reference_figures(bare, n_shards=3)
        executor = ShardedExecutor("serial", n_shards=3, obs=bare.obs)
        stats = EvaluationStats()
        before = bare.obs.snapshot()
        count_objects_through(
            bare, TARGET, CONSTRAINTS, stats=stats,
            executor=executor,
        )
        assert scan_figures(stats) == expected
        assert scan_figures(bare.obs, before) == expected
        # The executor's own observer passed as ``stats`` is one object.
        before = bare.obs.snapshot()
        count_objects_through(
            bare, TARGET, CONSTRAINTS, stats=bare.obs,
            executor=executor,
        )
        assert scan_figures(bare.obs, before) == expected

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "own"])
    def test_pietql_fanout_follows_the_rule(self, bare, shared):
        sharded = ShardedExecutor(
            "serial", n_shards=2, obs=bare.obs if shared else None
        )
        before = bare.obs.snapshot()
        result = ShardedPietQLExecutor(
            bare, BINDINGS, sharded=sharded
        ).execute(pietql_text(f"day = '{DAY2}'", explain=True))
        seen = scan_figures(sharded.obs, before if shared else None)
        assert seen["scan_rows"] == 100 * 24  # day 2 of every object, once
        fanout = find(result.plan.root, "ShardFanout")
        assert result.plan.strategy == "sharded"
        assert fanout.actual_rows == seen["scan_rows"]
        if not shared:
            assert scan_figures(bare.obs, before) == NOTHING


class TestExplainChangesNothing:
    """EXPLAIN prices and records; the run is the plain query's run."""

    def test_empty_answer_under_a_sharded_executor(self, bare):
        result = ShardedPietQLExecutor(bare, BINDINGS).execute(
            "EXPLAIN SELECT layer.neighborhoods FROM City "
            "WHERE contains(layer.neighborhoods, layer.rivers) "
            "| COUNT OBJECTS FROM FM THROUGH RESULT"
        )
        assert result.geometry_ids == frozenset()
        assert result.count == 0
        # Nothing fanned out, and the plan says so.
        assert result.plan.strategy == "grid"
        assert result.plan.result_count == 0

    def test_fanout_is_the_executors_own_either_way(self, bare):
        # 11 shards: a count no default gives, so a plan that shows it
        # read it off the executor.
        sharded = ShardedExecutor("serial", n_shards=11)
        executor = ShardedPietQLExecutor(bare, BINDINGS, sharded=sharded)
        plain = executor.execute(pietql_text(f"day = '{DAY2}'"))
        assert sharded.obs.count("shard_count") == 11
        explained = executor.execute(
            pietql_text(f"day = '{DAY2}'", explain=True)
        )
        assert sharded.obs.count("shard_count") == 22
        assert explained.matched_objects == plain.matched_objects
        assert explained.plan.shard_count == 11
        fanout = find(explained.plan.root, "ShardFanout")
        assert "shards=11" in fanout.detail


class TestServicePath:
    """A Piet-QL spec takes its routing from the planner, as a through
    spec does: on the default ``serial`` executor the fan-out prices
    above the in-process scan, so no table is cut."""

    def test_serial_executor_neither_cuts_nor_fans_out(self, bare):
        assert len(bare.moft("FM")) >= evaluator.BATCH_MIN_ROWS
        world = ServiceWorld("city", bare, dict(BINDINGS))
        text = pietql_text(f"day = '{DAY2}'", explain=True)
        before = bare.obs.snapshot()
        answer, explain = execute_spec(QuerySpec.pietql(text), world)
        delta = bare.obs.since(before)
        assert delta.get("shard_cache_misses", 0) == 0
        assert delta.get("shard_count", 0) == 0
        for executor in (
            ShardedPietQLExecutor(bare, BINDINGS),
            PietQLExecutor(bare, BINDINGS),
        ):
            result = executor.execute(text)
            assert canonical_json(result_payload("pietql", result)) == answer
        header, *_, rejected = explain.splitlines()
        strategy = header.split()[1]
        assert strategy in ("strategy=serial", "strategy=grid")
        assert f"[count_objects, moft=FM, {strategy}]" in explain
        assert rejected.startswith("  rejected: ")
        assert "sharded=" in rejected


class TestOneShardCount:
    def test_one_partition_per_table_per_executor(self, bare):
        executor = ShardedExecutor("serial", n_shards=3)
        for window in (None, ALIGNED):
            count, plan = planned_count_objects_through(
                bare, TARGET, CONSTRAINTS, window=window, executor=executor,
                force_strategy="sharded",
            )
            assert count == count_objects_through(
                bare, TARGET, CONSTRAINTS, window=window
            )
            assert plan.shard_count == 3
        result = ShardedPietQLExecutor(
            bare, BINDINGS, sharded=executor
        ).execute(pietql_text(f"day = '{DAY2}'", explain=True))
        assert "ShardFanout[backend=serial, shards=3]" in result.plan.render()
        assert executor.obs.count("shard_cache_misses") == 1
        assert executor.obs.count("shard_cache_hits") == 2


class TestPlanGoesStale:
    def test_append_after_planning_is_refused(self, stored):
        plan = plan_count_objects_through(
            stored, TARGET, CONSTRAINTS, window=ALIGNED
        )
        stored.moft("FM").add("late", 30.0, 0.0, 0.0)
        with pytest.raises(EvaluationError, match="changed after"):
            plan.execute()
