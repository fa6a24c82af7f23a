"""Unit tests for :class:`repro.preagg.PreAggStore`.

The store is an execution artifact, not new semantics: every query
method must return exactly what the serial scan over the (granule- or
window-restricted) MOFT returns.  These tests pin the store-level
contract — construction validation, staleness transitions, cell
decoding, lattice rollups, shard merges — while the three-way
differential suite (``tests/parallel/test_preagg_differential.py``)
covers the planner integration end to end.
"""

from __future__ import annotations

import math
from datetime import datetime

import numpy as np
import pytest

from repro.errors import PreAggError, RollupError
from repro.gis import NODE, POLYGON
from repro.mo import MOFT
from repro.preagg import OID_DTYPE, PreAggCell, PreAggStore
from repro.query.aggregate import total_dwell_time
from repro.query.evaluator import objects_through
from repro.query.region import EvaluationContext
from repro.synth import CityConfig, build_city, figure1_instance
from repro.synth.movement import random_waypoint_moft
from repro.temporal.calendar import hourly
from repro.temporal.timedim import TimeDimension

from tests.preagg.oracle import assert_cells_equal, spans

TARGET = ("Ln", POLYGON)


def fig1_fixture():
    """A fresh Figure 1 context, its bus MOFT, polygons, and a store."""
    context = figure1_instance().context()
    moft = context.moft("FMbus")
    elements = context.gis.layer("Ln").elements(POLYGON)
    store = PreAggStore(
        moft, context.time, "hour", elements, layer="Ln", kind=POLYGON
    )
    return context, moft, elements, store


def small_synth_fixture():
    """A small synthetic world (2k samples) with a day-granule store."""
    city = build_city(
        CityConfig(cols=4, rows=4), rng=np.random.default_rng(11)
    )
    moft = random_waypoint_moft(
        city.bounding_box,
        n_objects=40,
        n_instants=50,
        speed=city.config.block_size / 2,
        rng=np.random.default_rng(5),
    )
    time_dim = TimeDimension.from_mapping(
        hourly(datetime(2006, 1, 9, 0, 0)), range(50)
    )
    context = EvaluationContext(city.gis, time_dim, moft)
    elements = city.gis.layer("Ln").elements(POLYGON)
    store = PreAggStore(
        moft, time_dim, "day", elements, layer="Ln", kind=POLYGON
    )
    return context, moft, elements, store


@pytest.fixture(scope="module")
def fig1():
    return fig1_fixture()


@pytest.fixture(scope="module")
def synth():
    return small_synth_fixture()


class TestConstruction:
    def test_rejects_empty_geometries(self, fig1):
        context, moft, _, _ = fig1
        with pytest.raises(PreAggError, match=">= 1 polygon"):
            PreAggStore(moft, context.time, "hour", {})

    def test_rejects_non_polygon_geometry(self, fig1):
        context, moft, _, _ = fig1
        nodes = context.gis.layer("Ls").elements(NODE)
        with pytest.raises(PreAggError, match="not a\\s+Polygon"):
            PreAggStore(moft, context.time, "hour", nodes)

    def test_rejects_unregistered_instant(self):
        context, moft, elements, _ = fig1_fixture()
        moft.extend_columns(["O1"], [7.5], [0.0], [0.0])
        with pytest.raises(PreAggError, match="not a registered"):
            PreAggStore(moft, context.time, "hour", elements)

    def test_id_sets_are_sorted_uint32(self, fig1):
        _, _, _, store = fig1
        last = len(store.partition) - 1
        runs = [(g, g) for g in range(last + 1)] + [(0, last)]
        for ids in [[gid] for gid in store.gids] + [store.gids]:
            for which in ("present", "passers"):
                for run in runs:
                    arr = store._run_codes(ids, *run, which)
                    assert arr.dtype == OID_DTYPE
                    assert (np.diff(arr.astype(np.int64)) > 0).all()


class TestRunQueries:
    def test_full_run_matches_serial_scan(self, fig1):
        context, _, elements, store = fig1
        expected = objects_through(
            context, TARGET, [], moft_name="FMbus", use_preagg=False
        )
        full = (0, len(store.partition) - 1)
        assert store.objects_through(elements, *full) == expected

    def test_single_granule_matches_restricted_scan(self, fig1):
        context, moft, elements, store = fig1
        t, _, _ = moft.as_arrays()
        for g in range(len(store.partition)):
            lo, hi = store.partition.span(g, g)
            expected = objects_through(
                context, TARGET, [], moft_name="FMbus",
                window=(lo, hi), use_preagg=False,
            )
            assert store.objects_through(elements, g, g) == expected

    def test_distinct_subset_of_passers(self, synth):
        _, _, elements, store = synth
        full = (0, len(store.partition) - 1)
        distinct = store.distinct_objects(elements, *full)
        passers = store.objects_through(elements, *full)
        assert distinct <= passers

    def test_sample_count_matches_brute_force(self, synth):
        _, moft, elements, store = synth
        t, x, y = moft.as_arrays()
        expected = 0
        for polygon in elements.values():
            from repro.query.vectorized import polygon_contains_batch

            expected += int(polygon_contains_batch(polygon, x, y).sum())
        full = (0, len(store.partition) - 1)
        assert store.sample_count(elements, *full) == expected

    def test_dwell_matches_serial(self, synth):
        context, _, elements, store = synth
        expected = total_dwell_time(context, TARGET, [], use_preagg=False)
        full = (0, len(store.partition) - 1)
        assert math.isclose(
            store.dwell_time(elements, *full), expected,
            rel_tol=1e-9, abs_tol=1e-9,
        )

    def test_window_dwell_misaligned_matches_serial(self, synth):
        context, _, elements, store = synth
        window = (10.5, 40.5)
        assert not store.is_aligned(*window)
        expected = total_dwell_time(
            context, TARGET, [], window=window, use_preagg=False
        )
        assert math.isclose(
            store.window_dwell(elements, *window), expected,
            rel_tol=1e-9, abs_tol=1e-9,
        )

    def test_out_of_range_run_raises(self, fig1):
        _, _, elements, store = fig1
        with pytest.raises(PreAggError, match="out of range"):
            store.objects_through(elements, 0, len(store.partition))

    def test_unmaterialized_geometry_raises(self, fig1):
        _, _, _, store = fig1
        with pytest.raises(PreAggError, match="not materialized"):
            store.objects_through(["no-such-gid"], 0, 0)


class TestCells:
    def test_cell_decodes_consistently(self, fig1):
        _, _, elements, store = fig1
        total = 0
        for gid in store.gids:
            for member in store.partition.members:
                cell = store.cell(gid, member)
                assert isinstance(cell, PreAggCell)
                assert cell.distinct_objects <= cell.passing_objects
                total += cell.samples
        full = (0, len(store.partition) - 1)
        assert total == store.sample_count(elements, *full)

    def test_rollup_cells_sum_to_full_run(self, synth):
        """Rolling every day into one month reproduces the full-run answers."""
        _, _, elements, store = synth
        rolled = store.rollup_cells("month")
        members = {member for (_, member) in rolled}
        assert len(members) == 1  # 50 hourly instants: one month
        full = (0, len(store.partition) - 1)
        assert sum(c.samples for c in rolled.values()) == store.sample_count(
            elements, *full
        )
        passers = set().union(
            *(c.passing_objects for c in rolled.values())
        )
        assert passers == store.objects_through(elements, *full)
        dwell = sum(c.dwell for c in rolled.values())
        assert math.isclose(
            dwell, store.dwell_time(elements, *full),
            rel_tol=1e-9, abs_tol=1e-9,
        )

    def test_rollup_straddling_parent_raises(self, fig1):
        # Fig1's 'Other' time-of-day interleaves 'Morning', so hour
        # granules cannot refine a timeOfDay partition.
        _, _, _, store = fig1
        with pytest.raises(RollupError):
            store.rollup_cells("timeOfDay")

    def test_as_cube_rollup_matches_cells(self, synth):
        _, _, elements, store = synth
        cube = store.as_cube()
        totals = cube.rollup({"granule": "month"}, "sum", "samples")
        full = (0, len(store.partition) - 1)
        assert sum(totals.values()) == store.sample_count(elements, *full)
        per_geometry = cube.fact_table.aggregate(
            "sum", "samples", group_by=["geometry"]
        )
        for (gid,), value in per_geometry.items():
            assert value == store.sample_count([gid], *full)


class TestStaleness:
    def test_fresh_store_is_a_noop(self):
        _, _, _, store = fig1_fixture()
        assert not store.is_stale()
        assert store.update() == "fresh"

    def test_append_then_delta_update(self):
        context, moft, elements, store = small_synth_fixture()
        rng = np.random.default_rng(3)
        boxes = [polygon.bbox for polygon in elements.values()]
        min_x = min(b.min_x for b in boxes)
        max_x = max(b.max_x for b in boxes)
        min_y = min(b.min_y for b in boxes)
        max_y = max(b.max_y for b in boxes)
        oids, ts, xs, ys = [], [], [], []
        for oid in ("fresh-1", "fresh-2"):
            for t in range(40, 50):
                oids.append(oid)
                ts.append(float(t))
                xs.append(float(rng.uniform(min_x, max_x)))
                ys.append(float(rng.uniform(min_y, max_y)))
        moft.extend_columns(oids, ts, xs, ys)
        assert store.is_stale()
        assert store.update() == "delta"
        assert not store.is_stale()
        # The updated store equals one rebuilt from scratch.
        rebuilt = PreAggStore(moft, context.time, "day", elements)
        full = (0, len(store.partition) - 1)
        assert store.objects_through(elements, *full) == rebuilt.objects_through(
            elements, *full
        )
        assert store.sample_count(elements, *full) == rebuilt.sample_count(
            elements, *full
        )
        assert math.isclose(
            store.dwell_time(elements, *full),
            rebuilt.dwell_time(elements, *full),
            rel_tol=1e-9, abs_tol=1e-9,
        )

    def test_in_order_feed_equals_rebuild_cell_by_cell(self):
        """The batched delta fold: a table fed in time order, a few
        instants per ``update()``, ends with the cells, span records and
        last samples of a store built over the finished table."""
        context, moft, elements, _ = small_synth_fixture()
        t, x, y = moft.as_arrays()
        oid_col = moft.oid_column()
        cuts = [0, 7, 8, 23, 24, 25, 41, 50]  # day boundary at 24
        feed = MOFT("FM")
        store = None
        for lo, hi in zip(cuts, cuts[1:]):
            rows = np.flatnonzero((t >= lo) & (t < hi))
            # One object joins late: a delta head with no last sample.
            rows = rows[(oid_col[rows] != oid_col[0]) | (t[rows] >= 8)]
            feed.extend_columns(oid_col[rows], t[rows], x[rows], y[rows])
            if store is None:
                store = PreAggStore(feed, context.time, "day", elements)
            else:
                assert store.update() == "delta"
        rebuilt = PreAggStore(feed, context.time, "day", elements)

        assert_cells_equal(store, rebuilt)
        assert spans(store), "no segment crossed the day boundary"

    def test_out_of_order_append_takes_delta_path(self):
        """Regression: this exact case used to return ``"rebuild"``.

        An earlier instant for an existing object changes connecting
        segments already folded in; the store now retracts and refolds
        just that object instead of rebuilding, and still matches a
        from-scratch build exactly.
        """
        context, moft, elements, store = small_synth_fixture()
        oid = moft.oid_column()[0]
        moft.extend_columns([oid], [0.0], [5.0], [5.0], validate=False)
        assert store.update() == "delta"
        assert not store.is_stale()
        rebuilt = PreAggStore(moft, context.time, "day", elements)
        full = (0, len(store.partition) - 1)
        assert store.objects_through(elements, *full) == rebuilt.objects_through(
            elements, *full
        )
        assert store.sample_count(elements, *full) == rebuilt.sample_count(
            elements, *full
        )
        assert math.isclose(
            store.dwell_time(elements, *full),
            rebuilt.dwell_time(elements, *full),
            rel_tol=1e-9, abs_tol=1e-9,
        )
        for g in range(len(store.partition)):
            assert store.objects_through(
                elements, g, g
            ) == rebuilt.objects_through(elements, g, g)
            assert store.distinct_objects(
                elements, g, g
            ) == rebuilt.distinct_objects(elements, g, g)

    def test_out_of_order_interleaved_with_in_order_objects(self):
        """A mixed delta batch: one reordered object among fresh ones."""
        context, moft, elements, store = small_synth_fixture()
        oid = moft.oid_column()[0]
        moft.extend_columns(
            [oid, "late-joiner", "late-joiner"],
            [3.0, 45.0, 47.0],
            [2.0, 1.0, 3.0],
            [2.0, 1.0, 3.0],
            validate=False,
        )
        assert store.update() == "delta"
        rebuilt = PreAggStore(moft, context.time, "day", elements)
        full = (0, len(store.partition) - 1)
        assert store.objects_through(elements, *full) == rebuilt.objects_through(
            elements, *full
        )
        assert store.sample_count(elements, *full) == rebuilt.sample_count(
            elements, *full
        )
        assert math.isclose(
            store.dwell_time(elements, *full),
            rebuilt.dwell_time(elements, *full),
            rel_tol=1e-9, abs_tol=1e-9,
        )

    def test_clone_is_independent_and_equal(self):
        """A clone answers identically and isolates subsequent folds."""
        context, moft, elements, store = small_synth_fixture()
        full = (0, len(store.partition) - 1)
        before_count = store.sample_count(elements, *full)
        before_through = store.objects_through(elements, *full)
        clone = store.clone()
        assert clone.sample_count(elements, *full) == before_count
        assert clone.objects_through(elements, *full) == before_through
        moft.extend_columns(["c-new"], [49.0], [2.0], [2.0])
        assert clone.update() == "delta"
        # The source store never saw the fold.
        assert store.sample_count(elements, *full) == before_count
        assert store.objects_through(elements, *full) == before_through
        rebuilt = PreAggStore(moft, context.time, "day", elements)
        assert clone.objects_through(elements, *full) == rebuilt.objects_through(
            elements, *full
        )

    def test_table_that_reorders_its_objects_rebuilds(self):
        """Folds read the appended rows' object codes off the table.  A
        ``mask_rows`` child orders its objects as its parent did; a
        table built from the child's rows plus more orders them by
        first appearance, unlike the cells, and a clone of the store
        repointed at it rebuilds in ``update()`` to what a fresh build
        holds."""
        context, moft, elements, _ = small_synth_fixture()
        t, x, y = moft.as_arrays()
        oids = moft.oid_column()
        order = np.argsort(t, kind="stable")
        early, later = order[t[order] < 10], order[t[order] >= 10]
        parent = MOFT.from_columns(oids[early], t[early], x[early], y[early])
        parent.segment_index()
        first = parent.oid_column()[0]
        child = parent.mask_rows(
            (parent.oid_column() != first) | (parent.as_arrays()[0] > 0)
        )
        store = PreAggStore(child, context.time, "day", elements)
        c_t, c_x, c_y = child.as_arrays()
        grown = MOFT.from_columns(
            np.concatenate((child.oid_column(), oids[later])),
            np.concatenate((c_t, t[later])),
            np.concatenate((c_x, x[later])),
            np.concatenate((c_y, y[later])),
        )
        assert child.segment_index().oids[0] == first
        assert grown.segment_index().oids[0] != first
        moved = store.clone(moft=grown)
        assert moved.update() == "rebuild"
        assert_cells_equal(
            moved, PreAggStore(grown, context.time, "day", elements),
            exact=True,
        )
        # Appending to the child itself extends its order: a delta.
        child.extend_columns(oids[later], t[later], x[later], y[later])
        assert child.segment_index().oids[0] == first
        assert store.update() == "delta"
        assert_cells_equal(
            store, PreAggStore(child, context.time, "day", elements),
            exact=True,
        )

    def test_dimension_change_rebuilds(self):
        context, _, _, store = fig1_fixture()
        context.time.instance.set_rollup("hour", 99, "timeOfDay", "Other")
        assert store.is_stale()
        assert store.update() == "rebuild"
        assert not store.is_stale()


class TestMerge:
    def test_merge_equals_direct_build(self):
        context, moft, elements, _ = small_synth_fixture()
        direct = PreAggStore(moft, context.time, "day", elements)
        shards = [
            PreAggStore(shard, context.time, "day", elements)
            for shard in moft.partition_by_objects(4)
        ]
        merged = PreAggStore.merge(shards, moft)
        assert not merged.is_stale()
        full = (0, len(direct.partition) - 1)
        for g in range(len(direct.partition)):
            assert merged.objects_through(
                elements, g, g
            ) == direct.objects_through(elements, g, g)
        assert merged.objects_through(elements, *full) == direct.objects_through(
            elements, *full
        )
        assert merged.sample_count(elements, *full) == direct.sample_count(
            elements, *full
        )
        assert math.isclose(
            merged.dwell_time(elements, *full),
            direct.dwell_time(elements, *full),
            rel_tol=1e-9, abs_tol=1e-9,
        )

    def test_merge_zero_stores_raises(self, fig1):
        _, moft, _, _ = fig1
        with pytest.raises(PreAggError, match="zero"):
            PreAggStore.merge([], moft)

    def test_merge_overlapping_objects_raises(self, fig1):
        _, moft, _, store = fig1
        with pytest.raises(PreAggError, match="share objects"):
            PreAggStore.merge([store, store], moft)

    def test_merge_into_a_table_without_a_shard_object_raises(self, fig1):
        """Shard objects are coded by the merged table's object order:
        one the table does not hold is a typed error."""
        _, moft, _, store = fig1
        first = moft.oid_column()[0]
        renamed = MOFT.from_columns(
            ["other" if oid == first else oid for oid in moft.oid_column()],
            *moft.as_arrays(), name=moft.name,
        )
        with pytest.raises(PreAggError, match="not in the merged table"):
            PreAggStore.merge([store], renamed)

    def test_merge_mismatched_granules_raises(self):
        context, moft, elements, store = small_synth_fixture()
        other = PreAggStore(moft, context.time, "month", elements)
        with pytest.raises(PreAggError, match="disagree"):
            PreAggStore.merge([store, other], moft)
