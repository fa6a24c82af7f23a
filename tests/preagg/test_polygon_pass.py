"""The store's polygon pass: a set of ids, and a cache that never ships.

* ``C`` is a set (Definition 4): every read answers a repeated geometry
  id as if it were given once;
* the pass (edge table plus grid bins) is built once, shared by the
  clones made after it, and dropped from pickles, so a store pickles
  to the same bytes before and after a fold built it.
"""

from __future__ import annotations

import pickle

import pytest

from tests.preagg.oracle import assert_cells_equal
from tests.preagg.test_store import small_synth_fixture


@pytest.fixture(scope="module")
def synth():
    return small_synth_fixture()


def busiest_gid(store):
    last = len(store.partition) - 1
    return max(store.gids, key=lambda gid: store.dwell_time([gid], 0, last))


class TestRepeatedIds:
    def test_every_read_counts_an_id_once(self, synth):
        _, moft, _, store = synth
        last = len(store.partition) - 1
        g = busiest_gid(store)
        other = next(gid for gid in store.gids if gid != g)
        assert store.dwell_time([g], 0, last) > 0
        for once, twice in (([g], [g, g]), ([g, other], [g, other, g, other])):
            assert store.dwell_time(twice, 0, last) == store.dwell_time(once, 0, last)
            assert store.sample_count(twice, 0, last) == store.sample_count(once, 0, last)
            assert store.objects_through(twice, 0, last) == store.objects_through(once, 0, last)
            assert store.distinct_objects(twice, 0, last) == store.distinct_objects(once, 0, last)
            t0, t1 = moft.time_range()
            window = (t0 + 2.5, t1 - 3.5)
            assert store.window_dwell(twice, *window) == store.window_dwell(once, *window)


class TestPassCache:
    def test_built_once_and_shared_by_clones(self, synth):
        _, _, _, store = synth
        built = store._polygons
        store.refresh()
        assert store._polygons is built
        assert store.clone()._polygons is built

    def test_pickles_drop_it(self, synth):
        _, moft, _, store = synth
        store._polygons
        back = pickle.loads(pickle.dumps(store))
        assert "_polygons" not in vars(back)
        before = pickle.dumps(back)
        back._polygons
        assert "_polygons" in vars(back)
        assert pickle.dumps(back) == before
        # ... and the copy answers as the original does.
        assert_cells_equal(store, back, exact=True)
        t0, t1 = moft.time_range()
        ids = list(store.gids)[::2]
        window = (t0 + 1.5, t1 - 2.5)
        assert back.window_dwell(ids, *window) == store.window_dwell(ids, *window)
        assert back._polygons is not store._polygons
