"""Piet-QL payloads of object-set answers are the bytes of their ids.

``result_payload`` writes an :class:`~repro.mo.moft.ObjectSet` over a
table of plain ``str`` / ``int`` ids in the table's ``repr`` order, by
one gather; every other answer takes the coercing sort.  Either way the
canonical JSON must equal that of the equal ``frozenset``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.mo.moft import MOFT, ObjectSet
from repro.pietql.executor import PietQLResult
from repro.service import spec
from repro.service.spec import canonical_json, result_payload


def table_of(ids) -> MOFT:
    n = len(ids)
    return MOFT.from_columns(
        np.array(ids, dtype=object), np.zeros(n), np.arange(n, dtype=float),
        np.zeros(n),
    )


def payload(matched) -> str:
    result = PietQLResult(frozenset({"g"}), float(len(matched)), matched)
    return canonical_json(result_payload("pietql", result))


def same_bytes(answer: ObjectSet) -> None:
    assert payload(answer) == payload(frozenset(answer))


@given(
    st.lists(
        st.one_of(st.text(max_size=5), st.integers(-(2**40), 2**40)),
        min_size=1, max_size=30, unique=True,
    ),
    st.data(),
)
def test_plain_ids_take_the_ordered_path(ids, data):
    table = table_of(ids)
    answer = table.encode(data.draw(st.lists(st.sampled_from(ids))))
    assert answer.plain
    same_bytes(answer)


@pytest.mark.parametrize(
    "ids",
    [
        [np.int64(3), 2, 10, "a"],
        [np.str_("b"), "a", "c"],
        [("a", 1), ("a", np.int64(2)), "a"],
        [True, 2, "x"],
    ],
    ids=["numpy-int", "numpy-str", "tuple", "bool"],
)
def test_other_ids_take_the_sort(ids):
    answer = table_of(ids).encode(ids)
    assert not answer.plain
    same_bytes(answer)
    same_bytes(table_of(ids).encode(ids[1:]))


def test_the_ordered_path_sorts_nothing(monkeypatch):
    answer = table_of(["b", 10, "a", 9]).encode(["a", 10, 9])
    answer.in_repr_order()  # (the table's order, made once)

    def no_sort(*args, **kwargs):
        raise AssertionError("an ordered answer was sorted")

    monkeypatch.setattr(spec, "sorted", no_sort, raising=False)
    assert spec._sorted_ids(answer) == ["a", 10, 9]


def test_an_unpickled_answer_sorts():
    answer = pickle.loads(pickle.dumps(table_of(["b", "a"]).encode(["a", "b"])))
    assert not answer.plain
    same_bytes(answer)
