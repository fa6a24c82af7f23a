"""Differential guarantees for the cost-based planner.

The planner chooses *how* a through-aggregate runs, never *what* it
answers: every strategy it can emit (serial, grid, sharded, pre-agg
hybrid) must return exactly the serial scan's count, on the paper's
Figure 1 world and on the 10k-sample synthetic city, including the
misaligned windows that force the store-plus-sliver hybrid.  A
hypothesis fuzz over the cost-model constants then pins the stronger
property: whatever strategy any constants make the planner pick, the
answer never changes.

Contexts are module-local (not the shared session fixtures): planning
registers stores and warms grid caches, which must not leak out.
"""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gis import NODE, POLYGON, POLYLINE
from repro.parallel import ShardedExecutor, ShardedPietQLExecutor
from repro.pietql import PietQLExecutor
from repro.preagg import PreAggStore
from repro.query.evaluator import count_objects_through, objects_through
from repro.query.planner import (
    STRATEGIES,
    CostModel,
    plan_count_objects_through,
    planned_count_objects_through,
    run_plan,
)
from repro.query.region import EvaluationContext
from repro.synth import CityConfig, build_city, figure1_instance
from repro.synth.movement import random_waypoint_moft
from repro.temporal.calendar import hourly
from repro.temporal.timedim import TimeDimension

from tests.parallel.conftest import FIG1_BINDINGS, SYNTH_BINDINGS

FIG1_TARGET = ("Ln", POLYGON)
FIG1_CONSTRAINTS = [
    ("intersects", ("Lr", POLYLINE)),
    ("contains", ("Ls", NODE)),
]
SYNTH_TARGET = ("Ln", POLYGON)
SYNTH_CONSTRAINTS = [("intersects", ("Lr", POLYLINE))]

#: Synthetic-world windows: full span, day-aligned, and misaligned
#: (the hybrid store-cells-plus-sliver-scan path), then the windows that
#: are one DURING clause's granule run — those rows also hold Piet-QL's
#: ``THROUGH RESULT DURING`` to the same matched set.
SYNTH_WINDOWS = [
    (None, None),
    ((24.0, 71.0), None),
    ((30.5, 80.5), None),
    ((0.0, 23.0), "day = '2006-01-09'"),
    ((24.0, 47.0), "day = '2006-01-10'"),
    ((96.0, 99.0), "day = '2006-01-13'"),  # the last, partial day
]
FIG1_QUERY = (
    "SELECT layer.neighborhoods FROM Fig1 "
    "WHERE intersection(layer.rivers, layer.neighborhoods) "
    "AND contains(layer.neighborhoods, layer.schools) "
    "| COUNT OBJECTS FROM FMbus THROUGH RESULT DURING "
)
SYNTH_QUERY = (
    "SELECT layer.neighborhoods FROM City "
    "WHERE intersection(layer.neighborhoods, layer.rivers) "
    "| COUNT OBJECTS FROM FM THROUGH RESULT DURING "
)


@pytest.fixture(scope="module")
def fig1_preagg():
    context = figure1_instance().context()
    moft = context.moft("FMbus")
    elements = context.gis.layer("Ln").elements(POLYGON)
    store = PreAggStore(
        moft, context.time, "hour", elements, layer="Ln", kind=POLYGON
    )
    context.register_preagg(store)
    return context


@pytest.fixture(scope="module")
def synth_preagg():
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
    elements = city.gis.layer("Ln").elements(POLYGON)
    store = PreAggStore(
        moft, time_dim, "day", elements, layer="Ln", kind=POLYGON
    )
    context.register_preagg(store)
    return context


def assert_all_strategies_agree(
    context, target, constraints, moft_name="FM", window=None, pietql=None
):
    """Every planner strategy must equal the direct serial scan.

    ``pietql`` is ``(bindings, query text)`` of the Piet-QL form of the
    same query, its DURING clause naming exactly ``window``: its matched
    set (plain and sharded executor) must then equal the set of every
    forced strategy and of the route-first ``objects_through``.
    """
    reference = count_objects_through(
        context, target, constraints, moft_name=moft_name, window=window,
        use_preagg=False, use_index=False, vectorized=False,
    )
    executor = ShardedExecutor(backend="serial", n_shards=3, obs=context.obs)
    matched = {}
    for strategy in STRATEGIES:
        count, plan = planned_count_objects_through(
            context, target, constraints, moft_name=moft_name,
            window=window, executor=executor, force_strategy=strategy,
        )
        assert plan.strategy == strategy
        assert count == reference, (
            f"strategy {strategy!r} diverged for window={window}: "
            f"{count} != {reference}"
        )
        if pietql is not None:
            matched[strategy] = run_plan(
                plan_count_objects_through(
                    context, target, constraints, moft_name=moft_name,
                    window=window, executor=executor,
                    force_strategy=strategy,
                ),
                executor,
            )
    if pietql is not None:
        bindings, text = pietql
        matched["route-first"] = objects_through(
            context, target, constraints, moft_name=moft_name, window=window
        )
        hits = context.obs.count("preagg_hits")
        language = PietQLExecutor(context, bindings).execute(text)
        assert context.obs.count("preagg_hits") == hits + 1, (
            f"Piet-QL did not route {text!r} through the store"
        )
        sharded = ShardedPietQLExecutor(
            context, bindings, sharded=executor
        ).execute(text)
        assert language.count == sharded.count == reference
        for name, objects in matched.items():
            assert language.matched_objects == sharded.matched_objects == objects, (
                f"Piet-QL diverged from {name!r} for window={window}"
            )
    auto_count, auto_plan = planned_count_objects_through(
        context, target, constraints, moft_name=moft_name,
        window=window, executor=executor,
    )
    assert auto_count == reference
    assert auto_plan.strategy in STRATEGIES
    return reference


class TestFig1:
    def test_full_span_all_strategies(self, fig1_preagg):
        reference = assert_all_strategies_agree(
            fig1_preagg, FIG1_TARGET, FIG1_CONSTRAINTS, moft_name="FMbus"
        )
        assert reference == 5

    def test_aligned_window_all_strategies(self, fig1_preagg):
        for window, during in [
            # The Morning granule run: instants {2, 3, 4}.
            ((2.0, 4.0), "timeOfDay = 'Morning'"),
            # One hour granule.
            ((3.0, 3.0), "hour = '3'"),
        ]:
            assert_all_strategies_agree(
                fig1_preagg, FIG1_TARGET, FIG1_CONSTRAINTS,
                moft_name="FMbus", window=window,
                pietql=(FIG1_BINDINGS, FIG1_QUERY + during),
            )


class TestSynth:
    @pytest.mark.parametrize(
        "window, during",
        SYNTH_WINDOWS,
        ids=["full", "aligned", "misaligned", "day-1", "day-2", "day-5"],
    )
    def test_all_strategies_agree(self, synth_preagg, window, during):
        if window is not None and window == (30.5, 80.5):
            store = synth_preagg._preagg_stores[0]
            assert not store.is_aligned(*window)
        assert_all_strategies_agree(
            synth_preagg, SYNTH_TARGET, SYNTH_CONSTRAINTS, window=window,
            pietql=(
                None if during is None
                else (SYNTH_BINDINGS, SYNTH_QUERY + during)
            ),
        )

    def test_misaligned_plan_shows_sliver(self, synth_preagg):
        plan = plan_count_objects_through(
            synth_preagg, SYNTH_TARGET, SYNTH_CONSTRAINTS,
            window=(30.5, 80.5), force_strategy="preagg",
        )
        sliver = plan.root.find("SliverScan")
        assert sliver is not None
        assert sliver.est_rows > 0

    def test_aligned_plan_has_no_sliver(self, synth_preagg):
        plan = plan_count_objects_through(
            synth_preagg, SYNTH_TARGET, SYNTH_CONSTRAINTS,
            window=(24.0, 71.0), force_strategy="preagg",
        )
        assert plan.root.find("SliverScan") is None


#: Positive cost constants spanning six orders of magnitude — wide
#: enough to flip the planner's choice every which way.
positive = st.floats(
    min_value=1e-3, max_value=1e4, allow_nan=False, allow_infinity=False
)


class TestCostConstantFuzz:
    @settings(max_examples=20, deadline=None)
    @given(
        check_cost=positive,
        row_cost=positive,
        probe_cost=positive,
        granule_cost=positive,
        process_task_overhead=positive,
        process_row_ship_cost=positive,
    )
    def test_choice_never_changes_the_answer(
        self,
        fig1_preagg,
        check_cost,
        row_cost,
        probe_cost,
        granule_cost,
        process_task_overhead,
        process_row_ship_cost,
    ):
        """Whatever the constants pick, the count is the serial answer."""
        model = CostModel(
            check_cost=check_cost,
            row_cost=row_cost,
            probe_cost=probe_cost,
            granule_cost=granule_cost,
            process_task_overhead=process_task_overhead,
            process_row_ship_cost=process_row_ship_cost,
        )
        with ShardedExecutor(
            backend="processes", n_shards=2, obs=fig1_preagg.obs
        ) as executor:
            count, plan = planned_count_objects_through(
                fig1_preagg, FIG1_TARGET, FIG1_CONSTRAINTS,
                moft_name="FMbus", executor=executor, cost_model=model,
            )
        assert plan.strategy in STRATEGIES
        assert count == 5
