"""A DURING restriction decided per distinct instant equals the row test.

:func:`repro.query.evaluator.restriction_mask` (and with it
``ThroughOperands.row_mask``, every shard task and
``MOFT.restrict_instants``) tests an instant set against a table's
distinct instants once and gathers the answer by each row's instant
code.  Pinned here against the ulp-tolerant row-by-row test
``instants_member_mask(t, sorted_instants(...))``: instants a few ulps
off either side of the tolerance, both zeros, the cached codes after
appends and across a pickle, mask children, shards and mmap-loaded
tables.
"""

from __future__ import annotations

import pickle
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mo.moft import (
    INSTANT_MATCH_ULPS,
    MOFT,
    instants_member_mask,
    sorted_instants,
)
from repro.query.evaluator import restriction_mask

ULPS = int(INSTANT_MATCH_ULPS) + 2
#: Instants the shifts land around: both zeros, small and large values
#: (an ulp of 1.1e9 is ~2e-7).
BASES = (0.0, -0.0, 1.0, 3600.0, 172800.5, 1.1e9)


def shifted(base: float, ulps: int) -> float:
    value = np.float64(base)
    toward = np.inf if ulps > 0 else -np.inf
    for _ in range(abs(ulps)):
        value = np.nextafter(value, toward)
    return float(value)


instants = st.builds(
    shifted, st.sampled_from(BASES), st.integers(-ULPS, ULPS)
)
#: ``(oid, t)`` rows, unique by ``==`` (so one zero per object).
rows = st.lists(
    st.tuples(st.integers(0, 4), instants), min_size=1, max_size=60,
    unique=True,
)
wanted_sets = st.sets(instants, max_size=6)


def table_of(pairs, name: str = "FM") -> MOFT:
    oids = [oid for oid, _ in pairs]
    ts = [t for _, t in pairs]
    xs = [float(i) for i in range(len(pairs))]
    return MOFT.from_columns(oids, ts, xs, [0.0] * len(pairs), name=name)


def row_wise(moft: MOFT, wanted) -> np.ndarray:
    t, _, _ = moft.as_arrays()
    return instants_member_mask(t, sorted_instants(wanted))


def check(moft: MOFT, wanted) -> None:
    """The table-level mask equals the row test (twice: the second
    reads the cached codes), and ``restrict_instants`` keeps the very
    rows the row test keeps."""
    expected = row_wise(moft, wanted)
    for _ in range(2):
        assert np.array_equal(restriction_mask(moft, None, wanted), expected)
    restricted = moft.restrict_instants(wanted)
    reference = moft.mask_rows(expected)
    for got, want in zip(restricted.as_arrays(), reference.as_arrays()):
        assert got.tobytes() == want.tobytes()
    assert list(restricted.tuples()) == list(reference.tuples())


class TestPerInstantMask:
    @given(rows, wanted_sets)
    def test_equals_the_row_test(self, pairs, wanted):
        moft = table_of(pairs)
        check(moft, wanted)
        distinct, codes = moft.instant_codes()
        t, _, _ = moft.as_arrays()
        assert codes.dtype == np.uint8  # fewer than 256 instants
        assert np.array_equal(distinct[codes], t)

    @given(rows, wanted_sets)
    def test_window_keeps_its_comparisons(self, pairs, wanted):
        moft = table_of(pairs)
        t, _, _ = moft.as_arrays()
        window = (min(wanted, default=0.0), max(wanted, default=1.0))
        assert np.array_equal(
            restriction_mask(moft, window),
            (t >= window[0]) & (t <= window[1]),
        )

    @given(rows, rows, wanted_sets, instants)
    def test_appends_drop_the_codes(self, pairs, more, wanted, late):
        moft = table_of(pairs)
        check(moft, wanted)
        # New objects, so no appended sample twins an old one.
        moft.extend_columns(
            [oid + 10 for oid, _ in more], [t for _, t in more],
            [0.0] * len(more), [1.0] * len(more),
        )
        check(moft, wanted)
        moft.add(99, late, 2.0, 2.0)
        check(moft, wanted)
        distinct, codes = moft.instant_codes()
        assert codes.shape[0] == len(moft)
        assert np.array_equal(distinct, moft.instant_counts()[0])

    @given(rows, wanted_sets)
    def test_a_pickle_carries_no_codes(self, pairs, wanted):
        moft = table_of(pairs)
        check(moft, wanted)
        copy = pickle.loads(pickle.dumps(moft))
        assert copy._instant_codes is None
        check(copy, wanted)

    @given(rows, wanted_sets, st.data())
    def test_children_and_shards(self, pairs, wanted, data):
        moft = table_of(pairs)
        moft.instant_codes()  # the parent's codes are cached first
        keep = np.array(
            data.draw(st.lists(st.booleans(), min_size=len(pairs),
                               max_size=len(pairs)))
        )
        check(moft.mask_rows(keep), wanted)
        for shard in moft.partition_by_objects(3):
            check(shard, wanted)

    @settings(max_examples=40, deadline=None)
    @given(rows, wanted_sets)
    def test_mmap_loaded_tables(self, pairs, wanted):
        moft = table_of(pairs)
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "fm.moft"
            moft.save(path)
            loaded = MOFT.load(path)
            check(loaded, wanted)
            t, _, _ = loaded.as_arrays()
            check(loaded.mask_rows(t > 0), wanted)
            del loaded, t
