"""Tests for the Moving Object Fact Table."""

import numpy as np
import pytest

from repro.errors import TrajectoryError
from repro.geometry import Point
from repro.mo import MOFT, TrajectorySample


def small_moft() -> MOFT:
    moft = MOFT("FMbus")
    moft.add_many(
        [
            ("O1", 1, 0.0, 0.0),
            ("O1", 2, 1.0, 0.0),
            ("O1", 3, 2.0, 0.0),
            ("O2", 2, 5.0, 5.0),
            ("O2", 3, 6.0, 5.0),
        ]
    )
    return moft


class TestLoading:
    def test_len_and_objects(self):
        moft = small_moft()
        assert len(moft) == 5
        assert moft.objects() == {"O1", "O2"}

    def test_duplicate_instant_rejected(self):
        moft = small_moft()
        with pytest.raises(TrajectoryError):
            moft.add("O1", 2, 9.0, 9.0)

    def test_same_instant_different_objects_ok(self):
        moft = small_moft()
        moft.add("O3", 2, 0.0, 0.0)
        assert moft.sample_count("O3") == 1

    def test_instants(self):
        assert small_moft().instants() == {1, 2, 3}

    def test_sample_count(self):
        moft = small_moft()
        assert moft.sample_count("O1") == 3
        assert moft.sample_count("O9") == 0


class TestAccess:
    def test_rows(self):
        rows = list(small_moft().rows())
        assert rows[0] == {"oid": "O1", "t": 1.0, "x": 0.0, "y": 0.0}

    def test_tuples(self):
        tuples = list(small_moft().tuples())
        assert tuples[0] == ("O1", 1.0, 0.0, 0.0)

    def test_history_sorted(self):
        moft = MOFT()
        moft.add("O1", 3, 2.0, 0.0)
        moft.add("O1", 1, 0.0, 0.0)
        moft.add("O1", 2, 1.0, 0.0)
        assert [t for t, _, _ in moft.history("O1")] == [1, 2, 3]

    def test_history_unknown_object(self):
        with pytest.raises(TrajectoryError):
            small_moft().history("O9")

    def test_trajectory_sample(self):
        sample = small_moft().trajectory_sample("O1")
        assert isinstance(sample, TrajectorySample)
        assert len(sample) == 3

    def test_position(self):
        moft = small_moft()
        assert moft.position("O1", 2) == Point(1.0, 0.0)
        assert moft.position("O1", 99) is None


class TestColumnar:
    def test_as_arrays(self):
        t, x, y = small_moft().as_arrays()
        assert isinstance(t, np.ndarray)
        assert t.shape == (5,)
        assert x[0] == 0.0

    def test_arrays_cached_and_invalidated(self):
        moft = small_moft()
        t1, _, _ = moft.as_arrays()
        t2, _, _ = moft.as_arrays()
        assert t1 is t2
        moft.add("O3", 1, 0.0, 0.0)
        t3, _, _ = moft.as_arrays()
        assert t3.shape == (6,)

    def test_object_mask(self):
        moft = small_moft()
        mask = moft.object_mask("O1")
        assert mask.sum() == 3
        t, _, _ = moft.as_arrays()
        assert set(t[mask]) == {1.0, 2.0, 3.0}


class TestRestriction:
    def test_filter(self):
        late = small_moft().filter(lambda row: row["t"] >= 3)
        assert len(late) == 2

    def test_restrict_instants(self):
        morning = small_moft().restrict_instants({2, 3})
        assert len(morning) == 4
        assert morning.instants() == {2, 3}

    def test_restrict_objects(self):
        only_o1 = small_moft().restrict_objects({"O1"})
        assert only_o1.objects() == {"O1"}

    def test_time_range(self):
        assert small_moft().time_range() == (1.0, 3.0)

    def test_time_range_empty_raises(self):
        with pytest.raises(TrajectoryError):
            MOFT().time_range()

    def test_bbox(self):
        box = small_moft().bbox()
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (0, 0, 6, 5)

    def test_bbox_empty_raises(self):
        with pytest.raises(TrajectoryError):
            MOFT().bbox()


class TestSummaryInvalidation:
    """``time_range()``, ``bbox()`` and ``instant_counts()`` are cached
    per table state: after every kind of append they equal a fresh load
    of the same rows."""

    EXTRA = [("O3", 0.0, -2.0, 7.0), ("O1", 9.0, 8.0, -1.0)]

    @staticmethod
    def summaries(moft: MOFT):
        box = moft.bbox()
        instants, counts = moft.instant_counts()
        return (
            moft.time_range(),
            (box.min_x, box.min_y, box.max_x, box.max_y),
            (instants.tolist(), counts.tolist()),
        )

    @staticmethod
    def fresh(moft: MOFT) -> MOFT:
        oids, ts, xs, ys = zip(*moft.tuples())
        return MOFT.from_columns(oids, ts, xs, ys)

    def appended(self, how: str) -> MOFT:
        moft = small_moft()
        self.summaries(moft)  # fill the caches
        if how == "add":
            for sample in self.EXTRA:
                moft.add(*sample)
        elif how == "add_many":
            moft.add_many(self.EXTRA)
        else:
            moft.extend_columns(*map(list, zip(*self.EXTRA)))
        return moft

    @pytest.mark.parametrize("how", ["add", "add_many", "extend_columns"])
    def test_append_drops_the_summaries(self, how):
        moft = self.appended(how)
        assert self.summaries(moft) == self.summaries(self.fresh(moft))
        assert self.summaries(moft) == (
            (0.0, 9.0),
            (-2.0, -1.0, 8.0, 7.0),
            ([0.0, 1.0, 2.0, 3.0, 9.0], [1, 1, 2, 2, 1]),
        )

    def test_one_append_at_a_time(self):
        moft = small_moft()
        for sample in self.EXTRA:
            self.summaries(moft)
            moft.add(*sample)
            assert self.summaries(moft) == self.summaries(self.fresh(moft))


class TestRefusedSamples:
    """Non-finite numbers and unhashable ids never get into a table:
    every way in refuses them with ``TrajectoryError``."""

    BAD_NUMBERS = [
        (float("nan"), 0.0, 0.0),
        (1.0, float("inf"), 0.0),
        (1.0, 0.0, -float("inf")),
    ]

    @pytest.mark.parametrize("t,x,y", BAD_NUMBERS)
    def test_add_refuses_non_finite(self, t, x, y):
        moft = small_moft()
        with pytest.raises(TrajectoryError, match="non-finite"):
            moft.add("O1", t, x, y)
        assert list(moft.tuples()) == list(small_moft().tuples())

    @pytest.mark.parametrize("t,x,y", BAD_NUMBERS)
    def test_from_columns_refuses_non_finite(self, t, x, y):
        for validate in (True, False):
            with pytest.raises(TrajectoryError, match="non-finite"):
                MOFT.from_columns(
                    ["A", "A"], [0.0, t], [0.0, x], [0.0, y],
                    validate=validate,
                )

    def test_extend_columns_refuses_non_finite(self):
        moft = small_moft()
        with pytest.raises(TrajectoryError, match="non-finite"):
            moft.extend_columns(["O1"], [9.0], [float("nan")], [0.0])
        assert len(moft) == 5

    def test_read_csv_refuses_nan_instants(self):
        from repro.mo.io import from_csv_text

        with pytest.raises(TrajectoryError, match="non-finite"):
            from_csv_text("oid,t,x,y\nA,nan,0,0\nA,nan,1,1\n")

    def test_unhashable_ids(self):
        moft = small_moft()
        with pytest.raises(TrajectoryError, match="unhashable"):
            moft.add(["O1"], 9, 0.0, 0.0)
        with pytest.raises(TrajectoryError, match="unhashable"):
            MOFT.from_columns([["A"]], [0.0], [0.0], [0.0])
        with pytest.raises(TrajectoryError, match="unhashable"):
            moft.extend_columns([{"A": 1}], [9.0], [0.0], [0.0])
        assert len(moft) == 5


class TestNumpyIds:
    """A numeric or string id array gives Python ids, which the columnar
    format and the shared-memory shards encode."""

    @pytest.mark.parametrize(
        "ids,kind", [(np.array(["a", "b", "a"]), str), (np.array([7, 8, 7]), int)]
    )
    def test_save_load_and_shards(self, tmp_path, ids, kind):
        from repro.parallel.shm import serialize_shards

        moft = MOFT.from_columns(ids, [0.0, 0.0, 1.0], [1.0, 2.0, 3.0], [0.0] * 3)
        assert all(type(oid) is kind for oid in moft.objects())
        moft.save(tmp_path / "ids.moft")
        loaded = MOFT.load(tmp_path / "ids.moft")
        assert list(loaded.tuples()) == list(moft.tuples())
        assert all(type(oid) is kind for oid in loaded.objects())
        image = serialize_shards(moft.partition_by_objects(2))
        assert len(image.bounds) == 2


class TestConcurrentFirstRead:
    def test_threads_reading_an_added_table_see_every_row_once(self):
        """A table built by ``add`` is flushed by its first reader; many
        threads reading it first at once all see the same rows."""
        import sys
        import threading

        samples = [(f"o{i % 7}", float(i), float(i), 0.0) for i in range(2000)]
        moft = MOFT()
        moft.add_many(samples)
        barrier = threading.Barrier(8)
        seen = []

        def read():
            barrier.wait(timeout=10)
            t, _, _ = moft.as_arrays()
            seen.append((len(moft), t.shape[0], len(moft.oid_column())))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [(2000, 2000, 2000)] * 8
        assert list(moft.tuples()) == samples
