"""A store read slices its polygons' spanning records off an index.

:class:`~repro.preagg.PreAggStore` derives, once per cell table, an
index of its spanning records by (polygon, first granule) — a stable
permutation of the span columns and CSR offsets — and a read over a
granule run takes each polygon's records that start in the run and keeps
those that end in it too; a run of one granule takes none.  Pinned here
on the ``load_world("synth")`` day store, as built, after an
``update()``, on a ``clone()`` (before and after its own update) and
after a ``merge()`` of shard stores: for every polygon subset drawn
below and every granule run,

* the selection equals the mask every record was once read through,
  ``wanted[span_gid] & (span_a >= first) & (span_b <= last)``, in fold
  order;
* ``dwell_time`` gives the float bits of the mask path;
* the passers read equals a per-polygon scatter of the cell rows plus
  the selected records' objects.

The index is never pickled: an unpickled store derives its own.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.gis import POLYGON
from repro.mo import MOFT
from repro.preagg import PreAggStore
from repro.service.worlds import load_world


@pytest.fixture(scope="module")
def synth():
    context = load_world("synth").context
    polygons = context.gis.layer("Ln").elements(POLYGON)
    return context.moft("FM"), context.time, polygons


def subsets(store):
    """Every single polygon, all of them, and a few seeded subsets in
    no particular order (positions in the store's gids)."""
    n = len(store.gids)
    rng = np.random.default_rng(3)
    yield from ([p] for p in range(n))
    yield list(range(n))
    for size in (2, 5, 9, 17):
        yield rng.choice(n, size=size, replace=False).tolist()


def assert_reads_match_the_mask(store):
    table, n = store._table, len(store.partition)
    assert table.span_oid.size > 0  # (records to select)
    for subset in subsets(store):
        polygons = np.array(subset)
        wanted = np.zeros(len(store.gids), dtype=bool)
        wanted[polygons] = True
        ids = [store.gids[p] for p in subset]
        for first in range(n):
            for last in range(first, n):
                mask = (
                    wanted[table.span_gid]
                    & (table.span_a >= first) & (table.span_b <= last)
                )
                got = np.sort(store._run_spans(polygons, first, last))
                assert np.array_equal(got, np.flatnonzero(mask))
                dwell = float(
                    table.cell_dwell[polygons, first:last + 1].sum()
                ) + float(table.span_dwell[mask].sum())
                assert store.dwell_time(ids, first, last).hex() == dwell.hex()
                seen = np.zeros(len(table.oids), dtype=bool)
                for p in subset:
                    rows = slice(
                        table.offsets[p * n + first],
                        table.offsets[p * n + last + 1],
                    )
                    seen[table.oid[rows]] = True
                seen[table.span_oid[mask]] = True
                assert np.array_equal(
                    store._polygon_run_codes(polygons, first, last, "passers"),
                    np.flatnonzero(seen),
                )


def split(moft):
    """The rows up to instant 60 as a table, and the rest as columns."""
    t, x, y = moft.as_arrays()
    oids = moft.oid_column()
    early = t <= 60
    head = MOFT.from_columns(
        oids[early].tolist(), t[early], x[early], y[early], name=moft.name
    )
    return head, (oids[~early].tolist(), t[~early], x[~early], y[~early])


class TestSpanIndex:
    def test_as_built(self, synth):
        moft, time, polygons = synth
        assert_reads_match_the_mask(PreAggStore(moft, time, "day", polygons))

    def test_after_update_and_on_a_clone(self, synth):
        moft, time, polygons = synth
        head, rest = split(moft)
        store = PreAggStore(head, time, "day", polygons)
        # (Reads first: the index is derived before the fold.)
        assert_reads_match_the_mask(store)
        clone = store.clone()
        assert clone._span_index() is store._span_index()
        head.extend_columns(*rest)
        assert clone.update() == "delta"
        assert_reads_match_the_mask(clone)
        assert_reads_match_the_mask(store)  # (stale, its own table)
        assert store.update() == "delta"
        assert_reads_match_the_mask(store)

    def test_after_merge(self, synth):
        moft, time, polygons = synth
        shards = [
            PreAggStore(part, time, "day", polygons)
            for part in moft.partition_by_objects(3)
        ]
        for shard in shards:
            shard._span_index()  # (derived on the shards, not carried over)
        assert_reads_match_the_mask(PreAggStore.merge(shards, moft))

    def test_never_pickled(self, synth):
        moft, time, polygons = synth
        store = PreAggStore(moft, time, "day", polygons)
        plain = pickle.dumps(store)
        store._span_index()
        assert pickle.dumps(store) == plain
        assert_reads_match_the_mask(pickle.loads(plain))

    def test_one_granule_run_reads_no_record(self, synth):
        moft, time, polygons = synth
        store = PreAggStore(moft, time, "day", polygons)
        everything = np.arange(len(store.gids))
        for granule in range(len(store.partition)):
            assert store._run_spans(everything, granule, granule).size == 0
        assert store._span_order is None
