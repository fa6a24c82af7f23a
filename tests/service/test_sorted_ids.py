"""Canonical id lists: plain ``str`` / ``int`` ids skip the coercion.

``_sorted_ids`` sorts plain ids as they are; every other id set takes
the coercing path.  Pinned against the general implementation, inlined
below as the oracle, on ids whose ``repr`` order is easy to get wrong.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.service.spec import _sorted_ids


def oracle_plain(value):
    if isinstance(value, (list, tuple)):
        return [oracle_plain(v) for v in value]
    if hasattr(value, "item"):
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def oracle(ids) -> list:
    return sorted((oracle_plain(i) for i in ids), key=repr)


def same(ids) -> None:
    got, want = _sorted_ids(ids), oracle(ids)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]
    assert repr(got) == repr(want)


STRINGS = [
    "a", "a!", "a b", "a'", 'a"', "a\\b", "a\\", "'", '"', "", " ",
    "é", "日本", "a\n", "\x00", "Z", "z", "10", "9",
]
INTS = [0, -1, 1, 9, 10, -10, 2**70, -(2**70)]


@pytest.mark.parametrize(
    "ids",
    [
        STRINGS,
        INTS,
        STRINGS + INTS,
        frozenset(STRINGS),
        [True, False, 2],
        [np.int64(3), 2, 10],
        [np.str_("a"), "a!", "b"],
        [np.float64(1.5), 1, "1"],
        [("a", 1), ("a!", np.int64(2)), "a"],
        [None, "None", 0],
        [1.5, 2, "x"],
        [],
    ],
    ids=[
        "str", "int", "str+int", "frozenset", "bool", "numpy-int",
        "numpy-str", "numpy-float", "tuple", "none", "float", "empty",
    ],
)
def test_fast_path_equals_the_general_path(ids):
    same(ids)


plain = st.one_of(st.text(), st.integers())
other = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False),
    st.integers(-(2**31), 2**31 - 1).map(np.int64),
    st.text().map(np.str_),
    st.tuples(plain, plain),
)


@given(st.lists(plain, max_size=30))
def test_plain_ids(ids):
    same(ids)


@given(st.lists(st.one_of(plain, other), max_size=30))
def test_mixed_ids(ids):
    same(ids)
