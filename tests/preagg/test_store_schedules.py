"""Feed schedules the polygon store's cell table has to come out of equal.

Whatever order samples arrive in and wherever the batches, the fold
sums and the clones fall, the table a store ends with is the one a build
over the finished MOFT makes (``tests/preagg/oracle.py``: every cell,
every spanning record, every last sample), a pinned clone goes on
reading what it read, the float dwell of a row does not depend on where
the staged hits were summed, and a build stages no more than one segment
batch of hits at a time.
"""

from __future__ import annotations

import tracemalloc
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gis import POLYGON
from repro.mo import MOFT
from repro.mo import moft as moft_module
from repro.preagg import PreAggStore
from repro.synth import CityConfig, build_city
from repro.synth.movement import random_waypoint_moft
from repro.temporal.calendar import hourly
from repro.temporal.timedim import TimeDimension

from tests.preagg.oracle import assert_cells_equal, last_samples, spans

N_INSTANTS = 48  # two day granules: the edge is 23 | 24
CITY = build_city(CityConfig(cols=3, rows=3), rng=np.random.default_rng(9))
POLYGONS = dict(CITY.gis.layer("Ln").elements(POLYGON))
TIME = TimeDimension.from_mapping(
    hourly(datetime(2006, 1, 9, 0, 0)), range(N_INSTANTS)
)


def build(moft: MOFT) -> PreAggStore:
    return PreAggStore(moft, TIME, "day", POLYGONS, layer="Ln", kind=POLYGON)


def reads(store: PreAggStore):
    """Everything a reader can get out, floats bit for bit."""
    cells = [
        store.cell(gid, member)
        for gid in store.gids for member in store.partition.members
    ]
    last = len(store.partition) - 1
    whole = store.objects_through(store.gids, 0, last)
    return cells, whole, spans(store), last_samples(store)


# One sample: an object of a handful (so instants collide and arrive out
# of order), an instant — the granule edge as likely as all the others —
# and a position on a lattice over the city (polygon boundaries included).
box = CITY.bounding_box
samples = st.tuples(
    st.integers(0, 4),
    st.one_of(st.integers(0, N_INSTANTS - 1), st.sampled_from([22, 23, 24, 25])),
    st.integers(0, 12),
    st.integers(0, 12),
)
schedules = st.lists(
    st.tuples(st.lists(samples, min_size=1, max_size=10), st.booleans()),
    min_size=2,
    max_size=6,
)


def columns(batch):
    return (
        [f"o{obj}" for obj, _, _, _ in batch],
        [float(t) for _, t, _, _ in batch],
        [box.min_x + (box.max_x - box.min_x) * i / 12 for _, _, i, _ in batch],
        [box.min_y + (box.max_y - box.min_y) * j / 12 for _, _, _, j in batch],
    )


class TestSchedules:
    @given(schedules)
    @settings(deadline=None, max_examples=60)
    def test_any_schedule_ends_in_the_rebuild(self, schedule):
        """In-order, earlier-instant, duplicate-instant, brand-new-object
        and granule-edge appends in random batches; after each batch the
        store either folds on itself or hands over to a clone that does
        (the ingestor's way), and what stays behind is pinned."""
        feed = MOFT("FM")
        store, pins, kinds = build(feed), [], set()
        for batch, hand_over in schedule:
            known = last_samples(store)
            for (oid, t, _, _) in zip(*columns(batch)):
                at = known.get(oid)
                kinds.add("new" if at is None else "late" if t <= at[0] else "on")
            feed.extend_columns(*columns(batch), validate=False)
            pinned = store.clone()
            if hand_over:
                pinned, store = store, pinned
            pins.append((pinned, pinned._table, reads(pinned)))
            assert store.update() == "delta"
            assert not store.is_stale()
        assert "new" in kinds
        assert_cells_equal(store, build(feed))
        for pinned, table, before in pins:
            assert pinned._table is table
            assert reads(pinned) == before

    def test_the_strategy_reaches_every_kind_of_append(self):
        """(What the property's ``kinds`` would collect, on one schedule
        written out: a duplicate instant, an earlier one, the edge.)"""
        feed = MOFT("FM")
        store = build(feed)
        for batch in (
            [(0, 3, 1, 1), (0, 23, 6, 6), (1, 5, 2, 9)],
            [(0, 24, 7, 6), (2, 24, 3, 3)],           # across the edge; new
            [(0, 24, 8, 8), (1, 2, 9, 9)],            # duplicate; earlier
            [(0, 30, 6, 6), (2, 25, 4, 4), (2, 23, 5, 5)],  # on, on, late
        ):
            feed.extend_columns(*columns(batch), validate=False)
            assert store.update() == "delta"
        assert_cells_equal(store, build(feed))
        assert spans(store), "no segment crossed the day edge"


def synth_feed():
    """40 objects x 48 instants: the rows before instant 20, two appends
    (up to 35, the rest) and a few rows held back and delivered last,
    out of order."""
    moft = random_waypoint_moft(
        CITY.bounding_box, n_objects=40, n_instants=N_INSTANTS,
        speed=CITY.config.block_size / 2, rng=np.random.default_rng(5),
    )
    t, x, y = moft.as_arrays()
    oid = moft.oid_column()
    held = np.zeros(len(moft), dtype=bool)
    held[np.flatnonzero((t > 5) & (t < 30))[::37]] = True
    cuts = [(t < 20) & ~held, (t >= 20) & (t < 35) & ~held, (t >= 35) & ~held, held]
    return [(oid[m], t[m], x[m], y[m]) for m in cuts]


class TestStaging:
    def test_dwell_does_not_depend_on_where_the_sums_fall(self, monkeypatch):
        """The same feed under three batch sizes — so three sets of
        places where staged hits were summed into rows: bit-equal rows,
        bit-equal cells (``float.hex``)."""
        stores = []
        for batch_rows in (2, 8, 1 << 14):
            monkeypatch.setattr(moft_module, "SEGMENT_BATCH_ROWS", batch_rows)
            first, *appends = synth_feed()
            feed = MOFT.from_columns(*first)
            store = build(feed)
            for batch in appends:
                feed.extend_columns(*batch, validate=False)
                assert store.update() == "delta"
            stores.append(store)
        first = stores[0]
        assert first._table.dwell.size > 300 and spans(first)
        assert_cells_equal(first, build(first.moft), exact=False)
        for other in stores[1:]:
            assert_cells_equal(first, other, exact=True)
            for ours, theirs in zip(first._table[2:9], other._table[2:9]):
                assert ours.tobytes() == theirs.tobytes()

    def test_a_build_stages_one_batch_of_hits_at_a_time(self, monkeypatch):
        """Peak allocation of a build over 4x the rows (same objects,
        same polygons) grows by what the sample pass and the table take
        per row — not by what staging every hit before the first sum
        takes (measured here: 85 B a row added, against ~350 B a row)."""
        monkeypatch.setattr(moft_module, "SEGMENT_BATCH_ROWS", 512)

        def peak(n_instants, batch_rows=512):
            moft = random_waypoint_moft(
                CITY.bounding_box, n_objects=60, n_instants=n_instants,
                speed=CITY.config.block_size / 2,
                rng=np.random.default_rng(5),
            )
            time = TimeDimension.from_mapping(
                hourly(datetime(2006, 1, 9, 0, 0)), range(n_instants)
            )
            moft.segment_index()
            time.granules("day")
            monkeypatch.setattr(moft_module, "SEGMENT_BATCH_ROWS", batch_rows)
            tracemalloc.start()
            try:
                store = PreAggStore(moft, time, "day", POLYGONS)
                _, high = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert store._table.cell.size > 2 * 512
            return high

        small, large = peak(100), peak(400)
        per_added_row = (large - small) / (60 * 300)
        assert per_added_row < 150
        # The bound bites: one batch over the whole table stages it all.
        assert peak(400, batch_rows=1 << 30) > 2.5 * large
