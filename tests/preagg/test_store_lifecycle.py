"""One lifecycle contract, run over both store kinds.

:class:`repro.cellstore.GranuleStore` owns what a store built over a
table snapshot *is* — staleness, the three ``update()`` outcomes, the
clone repoint rule, the merge refusals, the registry predicate — and
:class:`~repro.preagg.PreAggStore` / :class:`~repro.poi.PoiVisitStore`
only supply cells.  Every test here is written against that contract
and parametrized over the two kinds (the way ``tests/service`` runs its
queue state machine over both queue backends); what only one kind has —
the polygon store's out-of-order retract path and its window slivers —
follows at the end.
"""

from __future__ import annotations

import pickle
from datetime import datetime

import numpy as np
import pytest

from repro.errors import PreAggError
from repro.geometry.poi import Poi
from repro.geometry.point import Point
from repro.gis import POLYGON
from repro.mo import MOFT
from repro.parallel import ShardedExecutor
from repro.poi import PoiVisitStore
from repro.preagg import PreAggStore
from repro.query.aggregate import total_dwell_time
from repro.query.evaluator import count_objects_through
from repro.query.region import EvaluationContext
from repro.synth import (
    CityConfig,
    build_city,
    install_city_pois,
    stop_biased_moft,
)
from repro.temporal.calendar import hourly
from repro.temporal.timedim import TimeDimension

from tests.preagg.oracle import assert_cells_equal, last_samples

N_INSTANTS = 48  # two days of hourly instants; the feed stops at BUILT
BUILT = 40


class World:
    """A 4x4 city with promoted POIs, a two-day Time dimension and a
    stop-biased population sampled at instants ``0..BUILT-1``."""

    def __init__(self) -> None:
        self.city = build_city(
            CityConfig(cols=4, rows=4), rng=np.random.default_rng(11)
        )
        self.pois = install_city_pois(self.city)
        self.polygons = dict(self.city.gis.layer("Ln").elements(POLYGON))
        self.time = TimeDimension.from_mapping(
            hourly(datetime(2006, 1, 9, 0, 0)), range(N_INSTANTS)
        )
        self.moft = stop_biased_moft(self.pois, 24, BUILT)

    def appended(self):
        """Columns that continue two objects and start a third, all after
        the built instants: stops, samples and segments every kind sees."""
        t, x, y = self.moft.as_arrays()
        oid_col = self.moft.oid_column()
        discs = [self.pois[gid] for gid in sorted(self.pois, key=repr)]
        oids, ts, xs, ys = [], [], [], []
        for oid, disc in (("visitor0", discs[0]), ("visitor1", discs[-1])):
            last = np.flatnonzero(oid_col == oid)[-1]
            for step, instant in enumerate(range(BUILT, BUILT + 5)):
                w = min(1.0, (step + 1) / 2)
                oids.append(oid)
                ts.append(float(instant))
                xs.append(float(x[last] + w * (disc.center.x - x[last])))
                ys.append(float(y[last] + w * (disc.center.y - y[last])))
        for instant in range(BUILT + 1, BUILT + 6):
            oids.append("joiner")
            ts.append(float(instant))
            xs.append(discs[1].center.x)
            ys.append(discs[1].center.y)
        return oids, ts, xs, ys

    def copy_of(self, moft: MOFT) -> MOFT:
        """A row-identical table that is another object, with another
        version counter (two bulk loads instead of per-row adds)."""
        t, x, y = moft.as_arrays()
        oid_col = moft.oid_column()
        half = len(moft) // 2
        twin = MOFT.from_columns(
            oid_col[:half], t[:half], x[:half], y[:half], name=moft.name
        )
        twin.extend_columns(oid_col[half:], t[half:], x[half:], y[half:])
        assert twin.version != moft.version
        return twin


class PolygonKind:
    """Adapter: how the contract builds and reads a :class:`PreAggStore`."""

    store_type = PreAggStore
    layer = "Ln"
    cell_key = {"kind": POLYGON}
    other_keys = [
        {"kind": "polyline"},
        {},
        {"granule_level": "day", "min_dwell": 0.0},
    ]

    def geometries(self, world):
        return world.polygons

    def build(self, world, moft=None, granule_level="day", geometries=None,
              **extra):
        return PreAggStore(
            world.moft if moft is None else moft, world.time, granule_level,
            self.geometries(world) if geometries is None else geometries,
            layer=self.layer, kind=POLYGON, **extra,
        )

    def answers(self, store):
        """``(exact, floats)``: everything a reader can get out."""
        last = len(store.partition) - 1
        exact, floats = [], []
        for gid in store.gids:
            for g in range(last + 1):
                exact.append(sorted(store.objects_through([gid], g, g)))
                exact.append(sorted(store.distinct_objects([gid], g, g)))
                exact.append(store.sample_count([gid], g, g))
            exact.append(sorted(store.objects_through([gid], 0, last)))
            floats.append(store.dwell_time([gid], 0, last))
        return exact, floats


class PoiKind:
    """Adapter: how the contract builds and reads a :class:`PoiVisitStore`."""

    store_type = PoiVisitStore
    layer = "Lp"
    cell_key = {"granule_level": "day", "min_dwell": 0.0}
    other_keys = [
        {"granule_level": "hour", "min_dwell": 0.0},
        {"granule_level": "day", "min_dwell": 1.0},
        {"granule_level": "day"},
        {"kind": "poi"},
    ]

    def geometries(self, world):
        return world.pois

    def build(self, world, moft=None, granule_level="day", geometries=None,
              **extra):
        return PoiVisitStore(
            world.moft if moft is None else moft, world.time, granule_level,
            self.geometries(world) if geometries is None else geometries,
            layer=self.layer, **extra,
        )

    def answers(self, store):
        dwell = store.dwell_times()
        keys = sorted(dwell, key=repr)
        exact = [
            sorted(store.visit_counts().items(), key=repr),
            sorted(store.distinct_visitors().items(), key=repr),
            keys,
        ]
        return exact, [dwell[key] for key in keys]


@pytest.fixture(params=[PolygonKind, PoiKind], ids=["polygon", "poi"])
def kind(request):
    return request.param()


@pytest.fixture()
def world():
    return World()


def assert_same(kind, got, want):
    got_exact, got_floats = kind.answers(got)
    want_exact, want_floats = kind.answers(want)
    assert got_exact == want_exact
    assert got_floats == pytest.approx(want_floats, rel=1e-9, abs=1e-12)


class TestSnapshot:
    def test_build_is_fresh(self, kind, world):
        store = kind.build(world)
        assert not store.is_stale()
        assert store.update() == "fresh"
        assert any(kind.answers(store)[1]), "the world gives this kind no cells"

    def test_unbuilt_store_is_stale_until_refreshed(self, kind, world):
        store = kind.build(world, build=False)
        assert store.is_stale()
        store.refresh()
        assert not store.is_stale()
        assert_same(kind, store, kind.build(world))

    def test_append_is_a_delta_equal_to_a_rebuild(self, kind, world):
        store = kind.build(world)
        before = kind.answers(store)
        world.moft.extend_columns(*world.appended())
        assert store.is_stale()
        assert store.update() == "delta"
        assert not store.is_stale()
        assert kind.answers(store) != before
        assert_same(kind, store, kind.build(world))
        assert store.update() == "fresh"

    def test_dimension_edit_rebuilds(self, kind, world):
        store = kind.build(world)
        world.time.instance.set_rollup("hour", 99, "timeOfDay", "Other")
        assert store.is_stale()
        assert store.update() == "rebuild"
        assert not store.is_stale()
        assert_same(kind, store, kind.build(world))

    def test_dimension_edit_wins_over_an_append(self, kind, world):
        """Both moved: the cells are keyed by a partition that may no
        longer hold, so the appended rows are not folded over it."""
        store = kind.build(world)
        world.time.instance.set_rollup("hour", 99, "timeOfDay", "Other")
        world.moft.extend_columns(*world.appended())
        assert store.update() == "rebuild"
        assert_same(kind, store, kind.build(world))

    def test_fewer_rows_than_built_rebuilds(self, kind, world):
        """Not an append: there is no delta to fold."""
        store = kind.build(world)
        t, x, y = world.moft.as_arrays()
        keep = t < BUILT - 10
        shorter = MOFT.from_columns(
            world.moft.oid_column()[keep], t[keep], x[keep], y[keep]
        )
        moved = store.clone(moft=shorter)
        assert moved.is_stale()
        assert moved.update() == "rebuild"
        assert_same(kind, moved, kind.build(world, moft=shorter))

    def test_pickle_round_trip(self, world):
        """Shard stores come back from the ``processes`` backend pickled
        (both kinds in the one test, which predates ``Poi`` pickling)."""
        for kind in (PolygonKind(), PoiKind()):
            store = kind.build(world)
            twin = pickle.loads(pickle.dumps(store, pickle.HIGHEST_PROTOCOL))
            assert_same(kind, twin, store)
            assert not twin.is_stale()

    def test_poi_pickle_round_trip(self):
        poi = Poi(Point(1, 2), 3.0)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            twin = pickle.loads(pickle.dumps(poi, protocol))
            assert twin == poi and hash(twin) == hash(poi)
            assert (twin.center, twin.radius) == (Point(1, 2), 3.0)
            with pytest.raises(AttributeError, match="immutable"):
                twin.radius = 4.0


class TestClone:
    def test_clone_answers_identically(self, kind, world):
        store = kind.build(world)
        clone = store.clone()
        assert type(clone) is kind.store_type
        assert clone.moft is store.moft and not clone.is_stale()
        assert_same(kind, clone, store)

    @pytest.mark.parametrize("folded", ["clone", "source"])
    def test_later_folds_stay_on_their_side(self, kind, world, folded):
        store = kind.build(world)
        clone = store.clone()
        before = kind.answers(store)
        world.moft.extend_columns(*world.appended())
        mover, other = (clone, store) if folded == "clone" else (store, clone)
        assert mover.update() == "delta"
        assert kind.answers(other) == before
        assert other.is_stale()
        assert_same(kind, mover, kind.build(world))
        assert other.update() == "delta"
        assert_same(kind, other, mover)

    def test_repoint_at_a_row_identical_table_is_fresh(self, kind, world):
        store = kind.build(world)
        twin = world.copy_of(world.moft)
        clone = store.clone(moft=twin)
        assert clone.moft is twin
        assert not clone.is_stale()
        assert clone.update() == "fresh"
        assert_same(kind, clone, store)
        assert not store.is_stale()

    def test_repoint_at_an_extension_folds_exactly_the_new_rows(
        self, kind, world, monkeypatch
    ):
        store = kind.build(world)
        extended = world.copy_of(world.moft)
        extended.extend_columns(*world.appended())
        clone = store.clone(moft=extended)
        assert clone.is_stale()
        starts = []
        fold = kind.store_type._fold_rows
        monkeypatch.setattr(
            kind.store_type, "_fold_rows",
            lambda self, start: (starts.append(start), fold(self, start))[1],
        )
        assert clone.update() == "delta"
        assert starts == [len(world.moft)]
        assert_same(kind, clone, kind.build(world, moft=extended))
        # The source still answers for, and is fresh over, its own table.
        assert not store.is_stale()
        assert_same(kind, store, kind.build(world))


class TestFoldsNeverWriteInPlace:
    """A fold makes a new table: every column of the one a store holds
    is read-only, and a pinned clone keeps its table object whatever the
    store it came from goes on to fold."""

    @staticmethod
    def columns(store):
        return [c for c in store._table if isinstance(c, np.ndarray)]

    def test_a_write_into_a_table_column_raises(self, kind, world):
        store = kind.build(world)
        world.moft.extend_columns(*world.appended())
        folded = store.clone()
        assert folded.update() == "delta"
        for made in (store, folded, kind.build(world, build=False)):
            columns = self.columns(made)
            assert len(columns) == len(made._table) - 1  # all but ``oids``
            for column in columns:
                with pytest.raises(ValueError, match="read-only"):
                    column[...] = 0

    def test_a_pinned_clone_survives_every_fold(self, kind, world):
        store = kind.build(world)
        pins = []

        def pin(source):
            clone = source.clone()
            assert clone._table is source._table
            content = [column.tobytes() for column in self.columns(clone)]
            pins.append((clone, clone._table, content, kind.answers(clone)))

        pin(store)
        world.moft.extend_columns(*world.appended())
        assert store.update() == "delta"  # an in-order batch
        pin(store)
        t, x, y = world.moft.as_arrays()
        row = int(np.flatnonzero(world.moft.oid_column() == "visitor3")[12])
        world.moft.extend_columns(
            ["visitor3", "visitor3"], [t[row], t[row] - 7.0],
            [x[row] + 7.0, x[row]], [y[row] - 3.0, y[row]], validate=False,
        )
        assert store.update() == "delta"  # an out-of-order batch
        pin(store)
        shards = [
            kind.build(world, moft=part)
            for part in world.moft.partition_by_objects(3)
        ]
        for shard in shards:
            pin(shard)
        merged = kind.store_type.merge(shards, world.moft)
        assert_same(kind, merged, store)
        assert_same(kind, store, kind.build(world))
        assert len({id(table) for _, table, _, _ in pins}) == len(pins)
        for clone, table, content, answers in pins:
            assert clone._table is table
            assert [c.tobytes() for c in self.columns(clone)] == content
            assert kind.answers(clone) == answers


class TestMerge:
    def shards(self, kind, world, n=3):
        parts = [p for p in world.moft.partition_by_objects(n) if len(p)]
        assert len(parts) == n
        return [kind.build(world, moft=part) for part in parts]

    def test_merge_equals_direct_build(self, kind, world):
        merged = kind.store_type.merge(self.shards(kind, world), world.moft)
        assert type(merged) is kind.store_type
        assert merged.moft is world.moft and not merged.is_stale()
        assert_same(kind, merged, kind.build(world))

    def test_refuses_zero_stores(self, kind, world):
        with pytest.raises(PreAggError, match="zero"):
            kind.store_type.merge([], world.moft)

    def test_refuses_other_granules(self, kind, world):
        a, b, c = self.shards(kind, world)
        parts = world.moft.partition_by_objects(3)
        b = kind.build(world, moft=parts[1], granule_level="month")
        with pytest.raises(PreAggError, match="disagree"):
            kind.store_type.merge([a, b, c], world.moft)

    def test_refuses_other_geometry_ids(self, kind, world):
        a, b, c = self.shards(kind, world)
        some = dict(list(kind.geometries(world).items())[:-1])
        parts = world.moft.partition_by_objects(3)
        b = kind.build(world, moft=parts[1], geometries=some)
        with pytest.raises(PreAggError, match="disagree"):
            kind.store_type.merge([a, b, c], world.moft)

    def test_refuses_shared_objects(self, kind, world):
        store = kind.build(world)
        with pytest.raises(PreAggError, match="share objects"):
            kind.store_type.merge([store, store], world.moft)

    def test_refuses_a_dropped_shard_without_snapshot(self, kind, world):
        """The table as it stands is the reference when no snapshot is
        given: a missing shard must not under-count silently."""
        shards = self.shards(kind, world)
        with pytest.raises(PreAggError, match="missing or truncated"):
            kind.store_type.merge(shards[:-1], world.moft)

    def test_refuses_rows_short_of_the_snapshot(self, kind, world):
        snapshot = (world.moft.version, len(world.moft))
        shards = self.shards(kind, world)
        with pytest.raises(PreAggError, match="missing or truncated"):
            kind.store_type.merge(shards[1:], world.moft, snapshot)

    def test_refusal_touches_no_cell(self, kind, world):
        shards = self.shards(kind, world)
        before = [kind.answers(shard) for shard in shards]
        with pytest.raises(PreAggError):
            kind.store_type.merge(shards + shards[:1], world.moft)
        assert [kind.answers(shard) for shard in shards] == before

    def test_append_racing_the_build_leaves_a_stale_store(self, kind, world):
        """Snapshot before partitioning, append after the shards were
        built: the merge is complete *for the snapshot*, stale against
        the table, and ``update()`` folds the racing rows."""
        snapshot = (world.moft.version, len(world.moft))
        shards = self.shards(kind, world)
        world.moft.extend_columns(*world.appended())
        merged = kind.store_type.merge(shards, world.moft, snapshot)
        assert merged.is_stale()
        assert merged.update() == "delta"
        assert_same(kind, merged, kind.build(world))

    def test_merge_of_unpickled_shards_watches_the_given_dimension(
        self, kind, world
    ):
        """Shard stores back from another process hold copies of the
        Time dimension that no later edit reaches."""
        shards = [
            pickle.loads(pickle.dumps(shard))
            for shard in self.shards(kind, world)
        ]
        assert shards[0].time is not world.time
        merged = kind.store_type.merge(shards, world.moft, time=world.time)
        assert merged.time is world.time and not merged.is_stale()
        world.time.instance.set_rollup("hour", 99, "timeOfDay", "Other")
        assert merged.is_stale()
        assert merged.update() == "rebuild"
        assert_same(kind, merged, kind.build(world))

    def test_store_built_on_processes_sees_a_dimension_edit(self, world):
        kind = PolygonKind()
        store = ShardedExecutor("processes", n_shards=2).build_preagg_store(
            world.moft, world.time, "day", world.polygons,
            layer="Ln", kind=POLYGON,
        )
        assert not store.is_stale()
        assert_same(kind, store, kind.build(world))
        world.time.instance.set_rollup("hour", 99, "timeOfDay", "Other")
        assert store.is_stale()
        assert store.update() == "rebuild"
        assert_same(kind, store, kind.build(world))


class TestServes:
    def test_truth_table(self, kind, world):
        store = kind.build(world)
        ids = list(kind.geometries(world))
        key = kind.cell_key
        assert store.serves(world.moft, kind.layer, ids, **key)
        assert store.serves(world.moft, kind.layer, ids[:1], **key)
        assert store.serves(world.moft, None, ids, **key)
        twin = world.copy_of(world.moft)
        assert not store.serves(twin, kind.layer, ids, **key)
        assert not store.serves(world.moft, "Lother", ids, **key)
        assert not store.serves(world.moft, kind.layer, ids + ["nope"], **key)
        for other in kind.other_keys:
            assert not store.serves(world.moft, kind.layer, ids, **other)

    def test_a_stale_store_still_serves(self, kind, world):
        """Staleness is the caller's call, not the registry's."""
        store = kind.build(world)
        world.moft.extend_columns(*world.appended())
        assert store.is_stale()
        ids = list(kind.geometries(world))
        assert store.serves(world.moft, kind.layer, ids, **kind.cell_key)


class TestRegistry:
    """Each lookup returns only stores of the kind that answers it."""

    @pytest.fixture()
    def registered(self, world):
        context = EvaluationContext(world.city.gis, world.time, world.moft)
        poi = context.register_preagg(PoiKind().build(world, obs=context.obs))
        polygon = context.register_preagg(
            PolygonKind().build(world, obs=context.obs)
        )
        return context, polygon, poi

    def test_each_query_meets_its_own_kind(self, world, registered):
        context, polygon, poi = registered
        moft = world.moft
        assert context.preagg_for(moft, "Ln", POLYGON, world.polygons) is polygon
        assert context.preagg_for(moft, "Lp", "poi", world.pois) is None
        assert context.poi_store_for(moft, "Lp", "day", 0.0, world.pois) is poi
        assert context.poi_store_for(moft, None, "day", 0, world.pois) is poi
        assert context.poi_store_for(moft, "Lp", "hour", 0.0, world.pois) is None
        assert context.poi_store_for(moft, "Lp", "day", 0.5, world.pois) is None
        assert (
            context.poi_store_for(moft, "Ln", "day", 0.0, world.polygons)
            is None
        )

    def test_through_count_over_a_poi_layer_scans(self, world, registered):
        """Regression: the registry used to hand the through-count the
        POI store, which has no ``objects_through``."""
        context, _, _ = registered
        target = ("Lp", "poi")
        expected = count_objects_through(context, target, [], use_preagg=False)
        hits = context.obs.count("preagg_hits")
        assert count_objects_through(context, target, []) == expected
        assert expected > 0
        assert context.obs.count("preagg_hits") == hits


# ---------------------------------------------------------------------------
# Polygon store only: the out-of-order retract path and window slivers
# ---------------------------------------------------------------------------


class TestOutOfOrderRetract:
    """Retract and refold run the batched passes: after any out-of-order
    append the cells, span records and last samples are those of a store
    built over the finished table."""

    @staticmethod
    def split(world, late_rows):
        """The world's table with ``late_rows`` held back, and those rows."""
        t, x, y = world.moft.as_arrays()
        oid_col = world.moft.oid_column()
        early = np.ones(len(world.moft), dtype=bool)
        early[late_rows] = False
        feed = MOFT.from_columns(
            oid_col[early], t[early], x[early], y[early]
        )
        late = (oid_col[late_rows], t[late_rows], x[late_rows], y[late_rows])
        return feed, late

    @pytest.fixture(autouse=True)
    def refolds(self, monkeypatch):
        """Objects sent down the retract-and-refold path, in order."""
        self.refolded = []
        refold = PreAggStore._refold_object

        def spy(store, delta, oid, *rest):
            self.refolded.append(oid)
            return refold(store, delta, oid, *rest)

        monkeypatch.setattr(PreAggStore, "_refold_object", spy)

    def check(self, world, feed, *batches):
        store = PolygonKind().build(world, moft=feed)
        for oids, ts, xs, ys in batches:
            feed.extend_columns(oids, ts, xs, ys, validate=False)
            assert store.update() == "delta"
        assert_cells_equal(store, PolygonKind().build(world, moft=feed))
        return store

    def rows_of(self, world, oid):
        """One object's rows, ascending in time."""
        t, _, _ = world.moft.as_arrays()
        rows = np.flatnonzero(world.moft.oid_column() == oid)
        return rows[np.argsort(t[rows], kind="stable")]

    def test_earlier_instant_for_an_existing_object(self, world):
        rows = self.rows_of(world, "visitor3")
        feed, late = self.split(world, rows[[4, 23, 24]])  # 23|24: day edge
        self.check(world, feed, late)
        assert self.refolded == ["visitor3"]

    def test_duplicate_instant(self, world):
        """``validate=False`` lets a second fix at a folded instant in:
        at-or-before the last sample counts as out of order."""
        rows = self.rows_of(world, "visitor5")
        t, x, y = world.moft.as_arrays()
        at = rows[-1]
        feed, _ = self.split(world, [])
        self.check(
            world, feed, (["visitor5"], [t[at]], [x[at] + 7.0], [y[at] - 3.0])
        )
        assert self.refolded == ["visitor5"]

    def test_whole_history_arrives_reversed(self, world):
        rows = self.rows_of(world, "visitor7")
        feed, _ = self.split(world, rows)
        t, x, y = world.moft.as_arrays()
        batches = [
            (["visitor7"], [t[row]], [x[row]], [y[row]])
            for row in rows[::-1]
        ]
        self.check(world, feed, *batches)
        # The first sample to arrive (the last in time) opens the object.
        assert self.refolded == ["visitor7"] * (len(rows) - 1)

    def test_reordered_object_among_in_order_ones(self, world):
        rows = self.rows_of(world, "visitor2")
        feed, late = self.split(world, rows[[10, 11]])
        oids, ts, xs, ys = world.appended()
        mixed = (
            list(late[0]) + oids,
            list(late[1]) + ts,
            list(late[2]) + xs,
            list(late[3]) + ys,
        )
        self.check(world, feed, mixed)
        assert self.refolded == ["visitor2"]

    def test_single_sample_object(self, world):
        """No segment to retract or refold: the lone-sample edge."""
        feed, _ = self.split(world, [])
        inside = next(iter(world.pois.values())).center
        store = self.check(
            world, feed,
            (["loner"], [30.0], [inside.x], [inside.y]),
            (["loner"], [12.0], [inside.x + 1.0], [inside.y]),
        )
        assert self.refolded == ["loner"]
        assert last_samples(store)["loner"][0] == 30.0


class TestWindowSlivers:
    """A misaligned dwell window: cells for the covered run, the dwell
    kernel for segments with an endpoint in a sliver."""

    @pytest.mark.parametrize(
        "window, covered",
        [
            ((10.5, 39.0), True),   # head sliver: day 1 cut, day 2 whole
            ((0.0, 30.5), True),    # tail sliver
            ((10.5, 30.5), False),  # both ends cut, no whole day between
            ((3.5, 20.5), False),   # inside one day: no covered run
            ((0.0, 23.0), True),    # aligned: no sliver at all
        ],
        ids=["head", "tail", "both", "no-run", "aligned"],
    )
    def test_window_dwell_matches_the_scan(self, world, window, covered):
        # Every day-2 instant holds samples, so 24..39 is all of day 2
        # only once the Time dimension stops at 39.
        world.time = TimeDimension.from_mapping(
            hourly(datetime(2006, 1, 9, 0, 0)), range(BUILT)
        )
        context = EvaluationContext(world.city.gis, world.time, world.moft)
        store = PolygonKind().build(world)
        assert (store.covered_run(*window) is not None) == covered
        expected = total_dwell_time(
            context, ("Ln", POLYGON), [], window=window, use_preagg=False
        )
        assert expected > 0
        ids = sorted(world.polygons, key=repr)
        assert store.window_dwell(ids, *window) == pytest.approx(
            expected, rel=1e-9, abs=1e-9
        )
        # Through the query path too: the registered store serves a
        # window that holds a whole granule, the scan any other.
        context.register_preagg(store)
        hits = context.obs.count("preagg_hits")
        assert total_dwell_time(
            context, ("Ln", POLYGON), [], window=window
        ) == pytest.approx(expected, rel=1e-9, abs=1e-9)
        assert context.obs.count("preagg_hits") == hits + covered

    def test_unmaterialized_id_is_a_typed_error(self, world):
        store = PolygonKind().build(world)
        for window in ((3.5, 20.5), (10.5, 39.0)):
            with pytest.raises(PreAggError, match="not materialized"):
                store.window_dwell(["no-such-gid"], *window)
