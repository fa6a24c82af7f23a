"""Every object answer is codes into the table it was asked of.

The scan, a fan-out's merge, a store built shard by shard and a store
an ingestor maintains across appends that bring new objects each answer
with an :class:`~repro.mo.moft.ObjectSet` over the table the query
read: its ``oids`` are that table's intern array and its codes are the
ones the serial scan of that table gives.
"""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest

from repro.gis import POLYGON
from repro.ingest import IngestConfig, StoreSpec, StreamingIngestor
from repro.mo.moft import MOFT, ObjectSet
from repro.parallel import ShardedExecutor
from repro.preagg import PreAggStore
from repro.query.evaluator import (
    TrajectoryIntersectionCounter,
    execute,
    resolve_through,
    restriction_mask,
)
from repro.query.region import EvaluationContext
from repro.synth import CityConfig, build_city
from repro.synth.movement import random_waypoint_moft
from repro.temporal.calendar import hourly
from repro.temporal.timedim import TimeDimension

TARGET = ("Ln", POLYGON)


@pytest.fixture(scope="module")
def city():
    """A 2 000-sample city, 40 objects over 50 hourly instants, and three
    of its neighborhoods (which some objects never cross)."""
    city = build_city(CityConfig(cols=4, rows=4), rng=np.random.default_rng(11))
    moft = random_waypoint_moft(
        city.bounding_box, n_objects=40, n_instants=50,
        speed=city.config.block_size / 2, rng=np.random.default_rng(5),
    )
    time_dim = TimeDimension.from_mapping(
        hourly(datetime(2006, 1, 9, 0, 0)), range(50)
    )
    polygons = city.gis.layer("Ln").elements(POLYGON)
    some = {gid: polygons[gid] for gid in sorted(polygons, key=repr)[:3]}
    return city.gis, time_dim, moft, some


def scan(table: MOFT, geometries, rows=None) -> ObjectSet:
    """The reference: the serial scan of ``table`` (under ``rows``)."""
    counter = TrajectoryIntersectionCounter(geometries, "serial")
    return counter.matching_objects(table, rows=rows)


def assert_codes_of(answer, table: MOFT, want: ObjectSet) -> None:
    assert isinstance(answer, ObjectSet)
    assert answer.oids is table.oids
    assert np.array_equal(answer.codes, want.codes)
    assert answer == want


def granule_rows(table: MOFT, partition, first: int, last: int):
    wanted = (partition.codes >= first) & (partition.codes <= last)
    return restriction_mask(table, instants=set(partition.instants[wanted]))


class TestScanAndMerge:
    def test_scan_codes_are_the_tables(self, city):
        _, _, moft, elements = city
        answer = scan(moft, elements)
        assert answer.oids is moft.oids
        assert 0 < len(answer) < len(moft.oids)
        assert np.all(np.diff(answer.codes) > 0)
        grid = TrajectoryIntersectionCounter(elements, "grid")
        assert_codes_of(grid.matching_objects(moft), moft, answer)
        rows = moft.as_arrays()[0] <= 20.0
        assert_codes_of(
            grid.matching_objects(moft, rows=rows), moft,
            scan(moft, elements, rows),
        )

    def test_a_merge_encodes_against_the_parent(self, city):
        _, _, moft, elements = city
        counter = TrajectoryIntersectionCounter(elements, "grid")
        with ShardedExecutor("serial", n_shards=2) as executor:
            assert_codes_of(
                executor.matching_objects(counter, moft), moft,
                scan(moft, elements),
            )
            assert_codes_of(
                executor.matching_objects(
                    counter, moft, restriction=((0.0, 20.0), None)
                ),
                moft, scan(moft, elements, moft.as_arrays()[0] <= 20.0),
            )


class TestStoreCodeSpaces:
    def test_a_store_built_shard_by_shard(self, city):
        gis, time_dim, moft, elements = city
        with ShardedExecutor("serial", n_shards=2) as executor:
            store = executor.build_preagg_store(
                moft, time_dim, "day", elements, layer="Ln", kind=POLYGON
            )
        whole = PreAggStore(
            moft, time_dim, "day", elements, layer="Ln", kind=POLYGON
        )
        last = len(store.partition) - 1
        for run in [(g, g) for g in range(last + 1)] + [(0, last)]:
            rows = granule_rows(moft, store.partition, *run)
            assert_codes_of(
                store.objects_through(store.gids, *run), moft,
                scan(moft, elements, rows),
            )
            assert_codes_of(
                store.distinct_objects(store.gids, *run), moft,
                whole.distinct_objects(whole.gids, *run),
            )

    def test_an_ingest_store_after_appends_of_new_objects(self, city):
        gis, time_dim, moft, elements = city
        # Half the objects from the start, the other half from t = 25 on:
        # later batches bring objects the first snapshots never held.
        early = set(moft.oids[:20].tolist())
        samples = sorted(
            (row for row in moft.tuples() if row[0] in early or row[1] >= 25),
            key=lambda row: row[1],
        )
        ingestor = StreamingIngestor(
            gis, time_dim, moft_name="FM",
            config=IngestConfig(allowed_lateness=0, compact_every=4),
            store_specs=(StoreSpec("day", "Ln", POLYGON),),
        )
        held = set()
        for start in range(0, len(samples), 300):
            batch = list(zip(*samples[start:start + 300]))
            ingestor.submit(*batch)
            held.add(self.check_snapshot(ingestor.snapshot(), elements))
        held.add(self.check_snapshot(ingestor.close(), elements))
        assert min(held) == 20 and max(held) == 40

    @staticmethod
    def check_snapshot(snapshot, elements) -> int:
        table, (store,) = snapshot.moft, snapshot.stores
        assert not store.is_stale()
        last = len(store.partition) - 1
        for run in [(g, g) for g in range(last + 1)] + [(0, last)]:
            rows = granule_rows(table, store.partition, *run)
            assert_codes_of(
                store.objects_through(elements, *run), table,
                scan(table, elements, rows),
            )
        return len(table.oids)

    def test_the_hybrid_is_a_code_union(self, city):
        gis, time_dim, moft, elements = city
        context = EvaluationContext(gis, time_dim, moft)
        context.register_preagg(PreAggStore(
            moft, time_dim, "day", elements, layer="Ln", kind=POLYGON
        ))
        window = (20.5, 49.0)
        leaf = resolve_through(context, TARGET, window=window, ids=elements)
        assert leaf.store is not None and leaf.sliver_mask is not None
        want = scan(moft, elements, restriction_mask(moft, window))
        assert_codes_of(execute(leaf, "preagg").answer, moft, want)
        with ShardedExecutor("serial", n_shards=2) as executor:
            leaf = resolve_through(
                context, TARGET, window=window, ids=elements
            )
            run = execute(leaf, "preagg", executor)
            assert run.shards > 0  # (the sliver's table fanned out)
            assert_codes_of(run.answer, moft, want)
