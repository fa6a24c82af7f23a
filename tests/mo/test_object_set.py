"""The object-set answer: codes into a table, read as a set of ids.

:class:`~repro.mo.moft.ObjectSet` must behave as the frozenset of its
ids wherever a caller treats it as a set (equality both ways, hashing,
membership, length, pickling, algebra), and its ``repr`` order must be
the order ``sorted(ids, key=repr)`` gives.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import TrajectoryError
from repro.mo.moft import MOFT, PLAIN_IDS, ObjectSet


def table_of(ids) -> MOFT:
    """A table with one sample per id, in the given order."""
    n = len(ids)
    return MOFT.from_columns(
        np.array(ids, dtype=object), np.zeros(n), np.arange(n, dtype=float),
        np.zeros(n),
    )


@pytest.fixture
def answer() -> ObjectSet:
    return table_of(["c", "a", 7, "b"]).encode(["a", 7, "b"])


class TestSetContract:
    def test_len_counts_codes(self, answer):
        assert len(answer) == answer.codes.shape[0] == 3

    def test_iterates_ids_in_code_order(self, answer):
        assert list(answer) == ["a", 7, "b"]

    def test_membership(self, answer):
        assert "a" in answer and 7 in answer
        assert "c" not in answer and "7" not in answer

    @pytest.mark.parametrize("kind", [set, frozenset])
    def test_equals_its_ids_both_ways(self, answer, kind):
        ids = kind({"a", 7, "b"})
        assert answer == ids and ids == answer
        assert not answer != ids and not ids != answer
        other = kind({"a", 7})
        assert answer != other and other != answer

    def test_equal_answers_over_other_tables(self, answer):
        again = table_of([7, "b", "a"]).encode(["b", "a", 7])
        assert answer == again
        assert answer != table_of(["a", "b"]).encode(["a"])

    def test_hash_agrees_with_frozenset(self, answer):
        assert hash(answer) == hash(frozenset({"a", 7, "b"}))
        assert {answer: 1}[frozenset({"a", 7, "b"})] == 1

    def test_pickle_round_trip(self, answer):
        back = pickle.loads(pickle.dumps(answer))
        assert isinstance(back, ObjectSet)
        assert back == answer and back == {"a", 7, "b"}
        # The pickle holds the answer's ids, not the table's.
        assert back.oids.tolist() == ["a", 7, "b"]
        assert back.in_repr_order() == answer.in_repr_order()

    def test_algebra_returns_frozensets(self, answer):
        for result, want in (
            (answer & {"a", "z"}, {"a"}),
            (answer | {"z"}, {"a", 7, "b", "z"}),
            (answer - {"a"}, {7, "b"}),
            (answer ^ {"a", "z"}, {7, "b", "z"}),
            ({"a", "z"} & answer, {"a"}),
            ({"z"} | answer, {"a", 7, "b", "z"}),
            ({"a", "z"} - answer, {"z"}),
        ):
            assert type(result) is frozenset
            assert result == want
        assert answer <= {"a", 7, "b", "c"}
        assert not answer.isdisjoint({"b"})

    def test_empty(self):
        empty = table_of(["a"]).encode(())
        assert len(empty) == 0 and not empty
        assert empty == set() and empty == frozenset()
        assert empty.in_repr_order() == []


class TestEncode:
    def test_repeats_count_once(self):
        table = table_of(["a", "b"])
        assert len(table.encode(["b", "a", "b"])) == 2

    def test_codes_are_the_tables(self):
        table = table_of(["c", "a", "b"])
        got = table.encode(["b", "c"])
        assert got.oids is table.oids
        assert got.codes.tolist() == [0, 2]

    def test_unknown_id_raises(self):
        with pytest.raises(TrajectoryError, match="'zz'"):
            table_of(["a"]).encode(["a", "zz"])


plain_ids = st.one_of(st.text(max_size=6), st.integers(-1000, 1000))


class TestReprOrder:
    @given(st.lists(plain_ids, min_size=1, max_size=40, unique=True), st.data())
    def test_equals_sorted_by_repr(self, ids, data):
        table = table_of(ids)
        order, plain = table.repr_order()
        assert plain
        assert table.oids[order].tolist() == sorted(ids, key=repr)
        some = data.draw(st.lists(st.sampled_from(ids), unique=True))
        answer = table.encode(some)
        assert answer.plain
        assert answer.in_repr_order() == sorted(some, key=repr)

    def test_ties_keep_code_order(self):
        class Same:
            def __repr__(self):
                return "same"

        first, second = Same(), Same()
        table = table_of([second, "a", first])
        order, plain = table.repr_order()
        assert not plain
        assert table.oids[order].tolist() == ["a", second, first]
        assert table.encode([first, second]).in_repr_order() == [second, first]

    @pytest.mark.parametrize(
        "odd", [True, np.int64(3), np.str_("x"), ("a", 1), 1.5]
    )
    def test_plain_means_exactly_str_and_int(self, odd):
        assert type(odd) not in PLAIN_IDS
        table = table_of(["a", odd])
        assert not table.repr_order()[1]
        assert not table.encode(["a"]).plain

    def test_cached_until_an_append(self):
        table = table_of(["b", "c"])
        first = table.repr_order()
        assert table.repr_order() is first
        table.extend_columns(["a"], [1.0], [0.0], [0.0])
        order, _ = table.repr_order()
        assert table.oids[order].tolist() == ["a", "b", "c"]

    def test_an_answer_outlives_an_append(self):
        table = table_of(["b", "c"])
        answer = table.encode(["c", "b"])
        table.extend_columns(["a"], [1.0], [0.0], [0.0])
        assert answer.in_repr_order() == ["b", "c"]
        assert answer == {"b", "c"}

    def test_pickle_drops_the_order(self):
        table = table_of(["b", "a"])
        table.repr_order()
        assert pickle.loads(pickle.dumps(table))._repr_order is None
