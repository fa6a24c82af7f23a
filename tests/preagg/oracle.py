"""The cell-by-cell oracle of the polygon store.

Two :class:`~repro.preagg.PreAggStore` objects hold the same aggregate
when every ``store.cell(gid, member)``, every spanning record and every
object's last folded sample agree — whatever order the objects were
interned in and whatever order the records were folded in.  Counts, id
sets and record keys compare exactly; dwell on the store's 1e-9
contract, or bit for bit (``float.hex``) with ``exact=True``.
"""

from __future__ import annotations

import math

from repro.preagg import PreAggStore


def spans(store: PreAggStore) -> list:
    """The spanning records as sorted ``(gid, oid, a, b, dwell)`` tuples
    (ids compared by ``repr``: a table may mix id types)."""
    table = store._table
    records = zip(
        (store.gids[g] for g in table.span_gid.tolist()),
        (table.oids[c] for c in table.span_oid.tolist()),
        table.span_a.tolist(), table.span_b.tolist(),
        table.span_dwell.tolist(),
    )
    return sorted(records, key=lambda r: (repr(r[0]), repr(r[1]), r[2:]))


def last_samples(store: PreAggStore) -> dict:
    """``{oid: (t, x, y)}`` of every object's last folded sample."""
    table = store._table
    return dict(zip(table.oids, map(tuple, table.last.tolist())))


def assert_cells_equal(
    store: PreAggStore, other: PreAggStore, exact: bool = False
) -> None:
    def same_dwell(a: float, b: float) -> bool:
        if exact:
            return a.hex() == b.hex()
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)

    assert store.gids == other.gids
    assert store.partition.members == other.partition.members
    assert last_samples(store) == last_samples(other)
    for gid in store.gids:
        for member in store.partition.members:
            ours, theirs = store.cell(gid, member), other.cell(gid, member)
            assert ours.samples == theirs.samples
            assert ours.distinct_objects == theirs.distinct_objects
            assert ours.passing_objects == theirs.passing_objects
            assert same_dwell(ours.dwell, theirs.dwell), (gid, member)
    got, want = spans(store), spans(other)
    assert [r[:4] for r in got] == [r[:4] for r in want]
    assert all(same_dwell(a[4], b[4]) for a, b in zip(got, want))
