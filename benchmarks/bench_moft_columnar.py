"""E17 — Columnar MOFT restrictions vs a per-row rebuild.

The seed implementation rebuilt restricted fact tables one ``add()`` at a
time.  The baseline here still does: it iterates ``rows()`` and calls
the buffered ``add()`` per kept row — a finiteness check, a twin check
against the table's small append buffer (the new table has no columns
yet, so no index lookup) and one buffer insertion.  The buffer is
flushed into the columns (one interning pass, no per-row work) only
when the result is first read, after the timed call.  The columnar
engine mask-slices whole columns and renumbers the kept object codes.
This benchmark demonstrates the acceptance bar: on a 100k-sample MOFT,
``restrict_instants`` and ``restrict_objects`` are ≥10× faster than the
per-row path, with row-for-row identical results.
"""

import pytest

from repro.bench import large_moft, print_table, timed
from repro.mo import MOFT


def per_row_restrict(moft, predicate):
    """The seed restriction path: filter via per-row add()."""
    result = MOFT(moft.name)
    for row in moft.rows():
        if predicate(row):
            result.add(row["oid"], row["t"], row["x"], row["y"])
    return result


@pytest.fixture(scope="module")
def big_moft():
    moft = large_moft(n_objects=500, n_instants=200)
    assert len(moft) == 100_000
    moft.as_arrays()  # warm the column cache; we measure restriction
    return moft


def test_restrict_instants_speedup(big_moft):
    wanted = {float(t) for t in range(0, 200, 2)}
    slow, reference = timed(
        lambda: per_row_restrict(big_moft, lambda row: row["t"] in wanted),
        repeat=3,
    )
    fast, sliced = timed(lambda: big_moft.restrict_instants(wanted), repeat=3)
    assert list(sliced.tuples()) == list(reference.tuples())
    speedup = slow / fast if fast else float("inf")
    print_table(
        "restrict_instants on 100k samples",
        ["path", "seconds"],
        [("per-row (seed)", f"{slow:.4f}"), ("mask-sliced", f"{fast:.4f}"),
         ("speedup", f"{speedup:.1f}x")],
    )
    assert speedup >= 10, f"only {speedup:.1f}x faster"


def test_restrict_objects_speedup(big_moft):
    wanted = {f"car{i}" for i in range(0, 500, 2)}
    slow, reference = timed(
        lambda: per_row_restrict(big_moft, lambda row: row["oid"] in wanted),
        repeat=3,
    )
    fast, sliced = timed(lambda: big_moft.restrict_objects(wanted), repeat=3)
    assert list(sliced.tuples()) == list(reference.tuples())
    speedup = slow / fast if fast else float("inf")
    print_table(
        "restrict_objects on 100k samples",
        ["path", "seconds"],
        [("per-row (seed)", f"{slow:.4f}"), ("mask-sliced", f"{fast:.4f}"),
         ("speedup", f"{speedup:.1f}x")],
    )
    assert speedup >= 10, f"only {speedup:.1f}x faster"


def test_bulk_construction_speedup(big_moft):
    """from_columns beats 100k add() calls for loading the same data."""
    oids = big_moft.oid_column()
    t, x, y = big_moft.as_arrays()

    def per_row_load():
        moft = MOFT()
        for row in big_moft.tuples():
            moft.add(*row)
        return moft

    slow, by_rows = timed(per_row_load, repeat=1)
    fast, by_columns = timed(
        lambda: MOFT.from_columns(oids, t, x, y), repeat=3
    )
    assert list(by_columns.tuples()) == list(by_rows.tuples())
    assert slow > fast
    print_table(
        "bulk load of 100k samples",
        ["path", "seconds"],
        [("add() per row", f"{slow:.4f}"), ("from_columns", f"{fast:.4f}")],
    )


def test_position_lookup_scales(big_moft, benchmark):
    """Point lookups ride the cached sorted index (binary search)."""

    def lookups():
        hits = 0
        for i in range(0, 500, 7):
            if big_moft.position(f"car{i}", 100.0) is not None:
                hits += 1
        return hits

    hits = benchmark(lookups)
    assert hits > 0
