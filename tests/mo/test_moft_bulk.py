"""Tests for the columnar MOFT storage engine.

The mask-sliced restriction paths (`filter`, `restrict_instants`,
`restrict_objects`, `mask_rows`) must be row-for-row identical to the
seed's per-row rebuild; the property tests below compare against a
reference implementation of that per-row path.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import TrajectoryError
from repro.geometry import Point
from repro.mo import MOFT
from repro.mo import moft as moft_module

sample_tuples = st.lists(
    st.tuples(
        st.sampled_from(["A", "B", "C", "D"]),
        st.integers(min_value=0, max_value=30),
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-50, max_value=50),
    ),
    min_size=0,
    max_size=40,
    unique_by=lambda item: (item[0], item[1]),
)


def build_moft(tuples):
    moft = MOFT()
    moft.add_many(tuples)
    return moft


def per_row_filter(moft, predicate):
    """The seed implementation: rebuild the table one add() at a time."""
    result = MOFT(moft.name)
    for row in moft.rows():
        if predicate(row):
            result.add(row["oid"], row["t"], row["x"], row["y"])
    return result


class TestFromColumns:
    def test_round_trip(self):
        moft = MOFT.from_columns(
            ["O1", "O1", "O2"], [1, 2, 1], [0.0, 1.0, 5.0], [0.0, 0.0, 5.0]
        )
        assert list(moft.tuples()) == [
            ("O1", 1.0, 0.0, 0.0),
            ("O1", 2.0, 1.0, 0.0),
            ("O2", 1.0, 5.0, 5.0),
        ]
        assert moft.objects() == {"O1", "O2"}

    def test_accepts_numpy_columns(self):
        moft = MOFT.from_columns(
            np.array(["O1", "O2"], dtype=object),
            np.array([1.0, 2.0]),
            np.array([0.0, 1.0]),
            np.array([0.0, 1.0]),
        )
        assert len(moft) == 2

    def test_empty(self):
        moft = MOFT.from_columns([], [], [], [])
        assert len(moft) == 0
        assert moft.objects() == set()

    def test_duplicate_validated(self):
        with pytest.raises(TrajectoryError, match="already has a sample"):
            MOFT.from_columns(["O1", "O1"], [1, 1], [0, 1], [0, 1])

    @given(sample_tuples, sample_tuples)
    def test_extend_columns_refuses_exactly_the_twins(self, old, new):
        """An append is refused iff some ``(oid, t)`` would be there
        twice — an old row's or two of its own — and then changes
        nothing."""
        moft = MOFT.from_columns(*map(list, zip(*old))) if old else MOFT()
        if not new:
            return
        keys = [(oid, float(t)) for oid, t, _, _ in old + new]
        if len(set(keys)) < len(keys):
            with pytest.raises(TrajectoryError, match="already has a sample"):
                moft.extend_columns(*map(list, zip(*new)))
            assert list(moft.tuples()) == old
        else:
            moft.extend_columns(*map(list, zip(*new)))
            assert list(moft.tuples()) == old + new

    def test_validate_false_skips_check(self):
        moft = MOFT.from_columns(
            ["O1", "O1"], [1, 1], [0, 1], [0, 1], validate=False
        )
        assert len(moft) == 2

    def test_length_mismatch_raises(self):
        with pytest.raises(TrajectoryError, match="column lengths differ"):
            MOFT.from_columns(["O1"], [1, 2], [0], [0])

    def test_add_after_bulk_construction(self):
        moft = MOFT.from_columns(["O1"], [1], [0.0], [0.0])
        moft.add("O1", 2, 1.0, 1.0)
        assert len(moft) == 2
        with pytest.raises(TrajectoryError):
            moft.add("O1", 1, 9.0, 9.0)

    def test_name_kept(self):
        assert MOFT.from_columns([], [], [], [], name="FMbus").name == "FMbus"


class TestMaskSlicing:
    @given(sample_tuples)
    def test_restrict_instants_matches_per_row(self, tuples):
        moft = build_moft(tuples)
        wanted = {float(t) for t in range(0, 31, 3)}
        sliced = moft.restrict_instants(wanted)
        reference = per_row_filter(moft, lambda row: row["t"] in wanted)
        assert list(sliced.tuples()) == list(reference.tuples())

    @given(sample_tuples)
    def test_restrict_objects_matches_per_row(self, tuples):
        moft = build_moft(tuples)
        wanted = {"A", "C"}
        sliced = moft.restrict_objects(wanted)
        reference = per_row_filter(moft, lambda row: row["oid"] in wanted)
        assert list(sliced.tuples()) == list(reference.tuples())

    @given(sample_tuples)
    def test_filter_matches_per_row(self, tuples):
        moft = build_moft(tuples)
        predicate = lambda row: row["x"] >= 0 and row["t"] <= 20
        assert list(moft.filter(predicate).tuples()) == list(
            per_row_filter(moft, predicate).tuples()
        )

    @given(sample_tuples)
    def test_restricted_table_is_fully_functional(self, tuples):
        moft = build_moft(tuples)
        sliced = moft.restrict_instants({float(t) for t in range(0, 16)})
        # The derived table supports the whole API: histories, arrays,
        # further restriction, appends.
        for oid in sliced.objects():
            history = sliced.history(oid)
            assert [t for t, _, _ in history] == sorted(
                t for t, _, _ in history
            )
        t, x, y = sliced.as_arrays()
        assert t.shape == (len(sliced),)
        again = sliced.restrict_objects({"A"})
        assert again.objects() <= {"A"}

    def test_restrict_instants_empty_set(self):
        moft = build_moft([("A", 1, 0.0, 0.0)])
        assert len(moft.restrict_instants(set())) == 0

    def test_mask_rows_wrong_length_raises(self):
        moft = build_moft([("A", 1, 0.0, 0.0)])
        with pytest.raises(TrajectoryError, match="mask has"):
            moft.mask_rows(np.zeros(5, dtype=bool))


class TestSortedIndex:
    def test_position_uses_binary_search(self):
        moft = MOFT()
        for t in (5, 1, 3, 2, 4):
            moft.add("O1", t, float(t), 0.0)
        assert moft.position("O1", 3) == Point(3.0, 0.0)
        assert moft.position("O1", 3.5) is None
        assert moft.position("O1", 99) is None

    def test_position_unknown_object_raises(self):
        with pytest.raises(TrajectoryError):
            MOFT().position("ghost", 1)

    def test_order_cache_invalidated_by_add(self):
        moft = MOFT()
        moft.add("O1", 2, 2.0, 0.0)
        assert moft.position("O1", 2) == Point(2.0, 0.0)
        moft.add("O1", 1, 1.0, 0.0)
        assert moft.position("O1", 1) == Point(1.0, 0.0)
        assert [t for t, _, _ in moft.history("O1")] == [1.0, 2.0]

    @given(sample_tuples)
    def test_history_sorted_after_bulk(self, tuples):
        if not tuples:
            return
        oids = [s[0] for s in tuples]
        moft = MOFT.from_columns(
            oids,
            [s[1] for s in tuples],
            [s[2] for s in tuples],
            [s[3] for s in tuples],
        )
        for oid in set(oids):
            times = [t for t, _, _ in moft.history(oid)]
            assert times == sorted(times)
            assert len(times) == moft.sample_count(oid)


def order_walk(moft):
    """The segment table by the per-object path: each object's rows
    (its ``object_mask``) in stable time order, then one segment per
    consecutive pair of them."""
    t, x, y = moft.as_arrays()
    rows_of, segments = {}, []
    for oid in moft.objects():
        rows = np.flatnonzero(moft.object_mask(oid))
        rows = rows[np.argsort(t[rows], kind="stable")].tolist()
        rows_of[oid] = rows
        segments += [
            (oid, t[a], x[a], y[a], t[b], x[b], y[b])
            for a, b in zip(rows, rows[1:])
        ]
    return rows_of, sorted(segments, key=repr)


def segment_table(moft, batch_rows):
    oids, perm, offsets = moft.segment_index()
    rows_of = {
        oid: perm[offsets[i]:offsets[i + 1]].tolist()
        for i, oid in enumerate(oids.tolist())
    }
    segments = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(moft_module, "SEGMENT_BATCH_ROWS", batch_rows)
        for batch in moft.segments():
            assert batch.obj.tolist() == sorted(batch.obj.tolist())
            segments += zip(
                oids[batch.obj].tolist(), batch.t0, batch.x0, batch.y0,
                batch.t1, batch.x1, batch.y1,
            )
    return rows_of, sorted(segments, key=repr)


@contextmanager
def index_builds():
    """Row counts of the tables that sort their segment index from
    scratch (:meth:`SegmentIndex.build`) while the block runs."""
    calls = []
    build = moft_module.SegmentIndex.build.__func__

    def spy(cls, oids, codes, t):
        calls.append(t.shape[0])
        return build(cls, oids, codes, t)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(moft_module.SegmentIndex, "build", classmethod(spy))
        yield calls


class TestSegmentTable:
    def check(self, moft):
        for batch_rows in (1, 5, 1 << 16):
            assert segment_table(moft, batch_rows) == order_walk(moft)
        # The codes are the index's objects, row by row.
        oids, perm, offsets = moft.segment_index()
        codes = moft.object_codes()
        assert codes[perm].tolist() == np.repeat(
            np.arange(len(oids)), np.diff(offsets)
        ).tolist()

    @given(sample_tuples)
    def test_equals_order_walk_however_built(self, tuples):
        appended = build_moft(tuples)
        self.check(appended)
        bulk = MOFT.from_columns(*map(list, zip(*tuples))) if tuples else MOFT()
        self.check(bulk)
        self.check(bulk.mask_rows(bulk.as_arrays()[0] % 3 != 0))
        self.check(bulk.restrict_objects({"A", "C"}))
        published = MOFT("FM")
        for at in range(0, len(tuples), 7):
            published = published.appended(*map(list, zip(*tuples[at:at + 7])))
        for table in (appended, bulk, published):
            assert list(table.tuples()) == tuples
        self.check(published)
        rejoined = MOFT.concat(bulk.partition_by_objects(3))
        assert sorted(rejoined.tuples(), key=repr) == sorted(
            bulk.tuples(), key=repr
        )
        self.check(rejoined)

    @given(sample_tuples)
    def test_mmap_loaded_table(self, tuples):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as folder:
            build_moft(tuples).save(Path(folder) / "fm.moft")
            with index_builds() as builds:
                loaded = MOFT.load(Path(folder) / "fm.moft")
                loaded.segment_index()
                # A child inherits the index, and filters it.
                child = loaded.mask_rows(loaded.as_arrays()[0] >= 10)
                child.segment_index()
            if tuples:  # prefilled from the file's CSR index: no sort
                assert builds == []
            self.check(loaded)
            self.check(child)

    def test_invalidated_by_append(self):
        def assert_fresh(moft):
            t, _, _ = moft.as_arrays()
            fresh = moft_module.SegmentIndex.build(
                moft.oids, moft.object_codes(), t
            )
            for got, want in zip(moft.segment_index(), fresh):
                assert got.tolist() == want.tolist()

        moft = build_moft([("A", 2, 2.0, 0.0), ("B", 1, 0.0, 0.0)])
        assert sum(len(batch) for batch in moft.segments()) == 0
        moft.add("A", 1, 1.0, 0.0)
        assert_fresh(moft)
        (batch,) = moft.segments()
        assert (batch.t0.tolist(), batch.t1.tolist()) == ([1.0], [2.0])
        with index_builds() as builds:
            moft.extend_columns(["B", "A"], [5, 3], [1.0, 3.0], [0.0, 0.0])
            assert_fresh(moft)
        assert builds == [len(moft)]  # the reference above, not the table
        self.check(moft)
        assert moft.objects() == {"A", "B"}


class TestOidColumn:
    def test_matches_rows(self):
        moft = build_moft([("A", 1, 0.0, 0.0), ("B", 1, 1.0, 1.0)])
        column = moft.oid_column()
        assert column.dtype == object
        assert list(column) == ["A", "B"]

    def test_cache_invalidated_by_add(self):
        moft = build_moft([("A", 1, 0.0, 0.0)])
        first = moft.oid_column()
        assert list(first) == list(moft.oid_column()) == ["A"]
        moft.add("B", 1, 1.0, 1.0)
        assert list(moft.oid_column()) == ["A", "B"]
        assert list(first) == ["A"]  # a decoded copy, not a live view

    def test_tuple_oids_survive(self):
        # Tuples are hashable oids; object-dtype indexing must not
        # flatten them into array rows.
        moft = build_moft([(("fleet", 1), 1, 0.0, 0.0)])
        assert moft.oid_column()[0] == ("fleet", 1)
