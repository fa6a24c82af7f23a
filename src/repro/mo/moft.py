"""The Moving Object Fact Table (MOFT) — Section 3 of the paper.

"A distinguished Moving Object Fact Table (MOFT), that contains tuples of
the form ``(Oid, t, x, y)``, where ``Oid`` is the identifier of the moving
object, ``t`` is a time instant, and ``(x, y)`` are the coordinates of the
object ``Oid`` at instant ``t``."

The table is a small columnar storage engine, kept as a warehouse keeps
a fact table: a surrogate key per object.  It holds one representation,
each row's object as an ``int32`` code (:meth:`object_codes`) into the
intern table :attr:`oids` and ``(t, x, y)`` as float columns; the rest
is derived from those and cached per table state:

* :meth:`mask_rows` (under :meth:`filter`, :meth:`restrict_instants`,
  :meth:`restrict_objects`) slices whole columns and renumbers codes;
* whole-table trajectory scans go through the **segment table**
  (:meth:`segment_index`, :meth:`segments`): every object's
  consecutive-sample segments as flat arrays in (object, time) order, so
  a scan hands the batch kernels all objects at once;
* per-object access (:meth:`history`, :meth:`position`,
  :meth:`trajectory_sample`) is a binary search in the object's run of
  that same index; :meth:`oid_column` decodes ``oids[codes]``;
* an object-set answer stays codes (:class:`ObjectSet`): counted by
  its code count, written out in the table's :meth:`repr_order`.

Every append takes one path (:meth:`add` buffers samples until the next
read): intern the new ids (:func:`intern`, the one interner), sort the
delta by ``(code, t)``, merge it into the index
(:meth:`SegmentIndex.extend`).  An object occupies at most one position
per instant — an adjacent-equal test over the index's time-sorted runs —
and non-finite numbers and unhashable ids are refused.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Set as AbstractSet
from itertools import count, repeat
from typing import (
    Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, List,
    NamedTuple, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro.errors import TrajectoryError
from repro.geometry.point import BoundingBox, Point
from repro.mo.trajectory import TrajectorySample

#: Instant-membership tolerance in ulps.  Instants that reach a query
#: through interpolation or granule arithmetic can drift a few ulps from
#: the registered member they mean; registered instants themselves are
#: separated by whole time units, many orders of magnitude wider.
INSTANT_MATCH_ULPS = 4.0

#: Rows gathered per :meth:`MOFT.segments` batch.  Bounds the transient
#: memory of a scan (the gathered coordinates and the kernels' own
#: temporaries, some hundred bytes per row) whatever the table size:
#: at 16k rows a scan of the 100k-row benchmark table peaks no higher
#: than the per-object loops did, and runs as fast as at 64k.
SEGMENT_BATCH_ROWS = 1 << 14

#: An id column and a number column, as appends take them (sequences or
#: NumPy arrays).
Ids = Sequence[Hashable]
Numbers = Sequence[float]


def intern(
    known: Dict[Hashable, int], oids: List[Hashable]
) -> Tuple[np.ndarray, Dict[Hashable, int]]:
    """The codes of ``oids`` in the intern table ``known``.  Ids it
    lacks take the next codes, in the order they first appear; they come
    back as a table of their own, for the caller to add to ``known``
    once the rows are accepted.  An unhashable id raises ``TypeError``
    before anything is coded."""
    if known:
        codes = np.fromiter(
            map(known.get, oids, repeat(-1)), dtype=np.intp, count=len(oids)
        )
        missing = np.flatnonzero(codes < 0)
        if not missing.size:
            return codes, {}
        new = [oids[row] for row in missing.tolist()]
    else:
        codes, new = np.empty(len(oids), dtype=np.intp), oids
        missing = slice(None)
    fresh = dict(zip(dict.fromkeys(new), count(len(known))))
    codes[missing] = np.fromiter(
        map(fresh.__getitem__, new), dtype=np.intp, count=len(new)
    )
    return codes, fresh


def recode(
    codes: np.ndarray, oids: np.ndarray, by_first_row: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """``codes`` into ``oids`` renumbered densely over the objects they
    use, and the matching intern table: objects keep their order, or come
    in the order of their first rows (``by_first_row``: the order of the
    file format and of a table built from columns).  The inputs come back
    as they are when nothing changes."""
    n, k = codes.shape[0], oids.shape[0]
    if by_first_row:
        first = np.full(k, n, dtype=np.intp)
        np.minimum.at(first, codes, np.arange(n))
        used = np.argsort(first, kind="stable")[:np.count_nonzero(first < n)]
    else:
        used = np.flatnonzero(np.bincount(codes, minlength=k))
    if used.shape[0] == k and not np.any(used != np.arange(k)):
        return codes, oids
    new = np.empty(k, dtype=np.int32)
    new[used] = np.arange(used.shape[0])
    return new[codes], oids[used]


def packed_key(rows: int, columns: Iterable[Tuple[int, np.ndarray]]) -> np.ndarray:
    """One ``int64`` key per row of code columns ``(size, codes)``, codes
    in ``[0, size)``: keys order as the rows' code tuples do, and are
    equal exactly when the tuples are.  The codes are packed in mixed
    radix, the key made dense first (``np.unique``) where the next
    column would overflow it."""
    key, span = np.zeros(rows, dtype=np.int64), 1
    for size, codes in columns:
        if span * size >= 2**62:
            key, span = np.unique(key, return_inverse=True)[1], rows
        key, span = key * size + codes, span * size
    return key


def _twin_error(oid: Hashable, t: float) -> TrajectoryError:
    return TrajectoryError(
        f"object {oid!r} already has a sample at t={t} "
        f"(an object is at one point at a given instant)"
    )


def _check_unique(oids: np.ndarray, group: np.ndarray, t: np.ndarray) -> None:
    """Raise for two adjacent rows of one ``group`` (a code into ``oids``)
    and instant: in time-sorted runs, twins sit side by side."""
    same = np.flatnonzero((group[1:] == group[:-1]) & (t[1:] == t[:-1]))
    if same.size:
        raise _twin_error(oids[group[same[0]]], float(t[same[0]]))


class SegmentIndex(NamedTuple):
    """A table's rows in (object, time) order — the cached half of the
    segment table.  ``oids[i]``'s samples are rows
    ``perm[offsets[i]:offsets[i + 1]]``, ascending in time."""

    oids: np.ndarray
    perm: np.ndarray
    offsets: np.ndarray

    @classmethod
    def build(
        cls, oids: np.ndarray, codes: np.ndarray, t: np.ndarray
    ) -> "SegmentIndex":
        """The index of rows from scratch: one ``(code, t)`` lexsort,
        rows of one object and instant in row order."""
        offsets = np.zeros(oids.shape[0] + 1, dtype=np.intp)
        np.cumsum(np.bincount(codes, minlength=oids.shape[0]), out=offsets[1:])
        return cls(oids, np.lexsort((t, codes)), offsets)

    def extend(
        self,
        oids: np.ndarray,
        t: np.ndarray,
        codes: np.ndarray,
        order: np.ndarray,
        check: bool = False,
    ) -> "SegmentIndex":
        """The index of this table's rows plus appended ones.

        ``oids`` interns the objects after the append (this index's
        ``oids`` are its prefix), ``t`` is the whole time column,
        ``codes`` the appended rows' positions in ``oids`` and ``order``
        those rows sorted by ``(code, t)``.  No old row is sorted again:
        each object's old rows keep their order at the object's new
        place and its appended rows follow them.  Only an object whose
        appended rows do not all come after its old ones in time has its
        rows sorted anew, so the result equals the from-scratch index
        whatever the append.  ``check`` raises ``TrajectoryError`` for a
        sample whose object has another at its instant: twins in the
        delta, or in the runs of those objects its rows reach back into
        (for any other object every appended row is later than all old).
        """
        n, k, m = self.perm.shape[0], self.oids.shape[0], oids.shape[0]
        old = np.zeros(m, dtype=np.intp)
        old[:k] = np.diff(self.offsets)
        new = np.bincount(codes, minlength=m)
        offsets = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(old + new, out=offsets[1:])
        perm = np.empty(n + codes.shape[0], dtype=np.intp)
        shift = offsets[:k] - self.offsets[:-1]
        perm[np.arange(n) + np.repeat(shift, old[:k])] = self.perm
        first = np.cumsum(new) - new  # each object's first place in order
        sorted_codes = codes[order]
        if check:
            _check_unique(oids, sorted_codes, t[n + order])
        at = np.arange(order.shape[0]) - first[sorted_codes]
        perm[offsets[sorted_codes] + old[sorted_codes] + at] = n + order
        both = np.flatnonzero((old > 0) & (new > 0))
        back = both[
            t[n + order[first[both]]] <= t[self.perm[self.offsets[both + 1] - 1]]
        ]
        if back.size:
            lo, span = offsets[back], offsets[back + 1] - offsets[back]
            where = np.repeat(lo - np.cumsum(span) + span, span)
            where += np.arange(where.shape[0])
            rows = perm[where]
            group = np.repeat(back, span)
            perm[where] = rows = rows[np.lexsort((t[rows], group))]
            if check:
                _check_unique(oids, group, t[rows])
        return SegmentIndex(oids, perm, offsets)

    def masked(self, mask: np.ndarray) -> "SegmentIndex":
        """The rows ``mask`` keeps, numbered as in this table; an object
        that keeps none has an empty run.  What a scan under a row mask
        reads, and what a :meth:`MOFT.mask_rows` child renumbers."""
        kept = mask[self.perm]
        bounds = np.concatenate(([0], np.cumsum(kept)))[self.offsets]
        return SegmentIndex(self.oids, self.perm[kept], bounds)


class SegmentBatch:
    """Consecutive-sample segments of whole objects, as flat arrays.

    Segment ``j`` runs from sample ``(t0[j], x0[j], y0[j])`` to
    ``(t1[j], x1[j], y1[j])`` of object ``obj[j]`` (a position in
    :attr:`SegmentIndex.oids`), in (object, time) order; ``offsets`` gives
    object ``first + i`` the segments ``offsets[i]:offsets[i + 1]``.
    """

    __slots__ = (
        "t0", "t1", "x0", "y0", "x1", "y1", "obj", "first", "offsets",
        "_bounds",
    )

    def __init__(self, t0, t1, x0, y0, x1, y1, obj=None, first=0, offsets=None):
        self.t0, self.t1 = t0, t1
        self.x0, self.y0, self.x1, self.y1 = x0, y0, x1, y1
        self.obj, self.first, self.offsets = obj, first, offsets
        self._bounds = None

    def __len__(self) -> int:
        return self.x0.shape[0]

    def ends(self, index: np.ndarray) -> Tuple[np.ndarray, ...]:
        """``(x0, y0, x1, y1)`` of the segments at ``index``: kernel input."""
        return self.x0[index], self.y0[index], self.x1[index], self.y1[index]

    def boxes(self, subset: Optional[np.ndarray] = None) -> Tuple[np.ndarray, ...]:
        """``(min_x, min_y, max_x, max_y)`` of the segments (of
        ``subset``): the input of a broad phase
        (:func:`repro.geometry.index.candidate_pairs`)."""
        if self._bounds is None:
            self._bounds = (
                np.minimum(self.x0, self.x1), np.minimum(self.y0, self.y1),
                np.maximum(self.x0, self.x1), np.maximum(self.y0, self.y1),
            )
        if subset is None:
            return self._bounds
        return tuple(v[subset] for v in self._bounds)


#: Id types that are no other id's ``repr`` and that JSON writes as they
#: are: exactly these (a subclass such as ``bool`` or ``numpy.str_`` is
#: not one of them).
PLAIN_IDS = frozenset((str, int))


class ObjectSet(AbstractSet):
    """An object-set answer as codes into its table: ``oids`` is the
    table's intern array and ``codes`` the answer's positions in it,
    ascending and distinct.

    A :class:`collections.abc.Set` of ids that decodes only when asked:
    ``len`` counts codes, iteration and ``in`` decode them (``in``
    through a frozenset made at the first test), ``==`` and ``hash``
    agree with the equal ``frozenset``, and set algebra returns a plain
    ``frozenset``.  :meth:`in_repr_order` lists the ids in the table's
    cached :meth:`MOFT.repr_order`.  A pickle carries the answer's ids,
    not its table.
    """

    __slots__ = ("oids", "codes", "_table", "_ids")

    def __init__(
        self, oids: np.ndarray, codes: np.ndarray,
        table: Optional["MOFT"] = None,
    ) -> None:
        self.oids, self.codes, self._table = oids, codes, table
        self._ids: Optional[FrozenSet[Hashable]] = None

    @classmethod
    def _from_iterable(cls, ids: Iterable[Hashable]) -> FrozenSet[Hashable]:
        return frozenset(ids)

    def _frozen(self) -> FrozenSet[Hashable]:
        if self._ids is None:
            self._ids = frozenset(self.oids[self.codes].tolist())
        return self._ids

    def __len__(self) -> int:
        return self.codes.shape[0]

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.oids[self.codes].tolist())

    def __contains__(self, oid: object) -> bool:
        return oid in self._frozen()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ObjectSet):
            if other.oids is self.oids:
                return bool(np.array_equal(self.codes, other.codes))
            other = other._frozen()
        if isinstance(other, (set, frozenset)):
            return self._frozen() == other
        return AbstractSet.__eq__(self, other)

    def __hash__(self) -> int:
        return hash(self._frozen())

    def __reduce__(self) -> tuple:
        return ObjectSet, (self.oids[self.codes], np.arange(len(self)))

    def __repr__(self) -> str:
        return f"ObjectSet({list(self)!r})"

    @property
    def plain(self) -> bool:
        """Whether every id of the table is exactly a ``str`` or an
        ``int`` (False without a table): no two ids then share a
        ``repr``, and JSON writes them as they are."""
        return self._table is not None and self._table.repr_order()[1]

    def in_repr_order(self) -> List[Hashable]:
        """The ids sorted by ``repr``, ties in code order: one gather
        through the table's :meth:`MOFT.repr_order` (a sort when there
        is no table, as after unpickling)."""
        if self._table is None:
            return sorted(self, key=repr)
        order, _ = self._table.repr_order()
        keep = np.zeros(order.shape[0], dtype=bool)
        keep[self.codes] = True
        return self.oids[order[keep[order]]].tolist()


def sorted_instants(instants: Iterable[float]) -> np.ndarray:
    """Canonicalize an instant collection to a sorted float array.

    The canonical representation behind every instant-membership test:
    :meth:`MOFT.instants_mask` (under :meth:`MOFT.restrict_instants` and
    :func:`~repro.query.evaluator.restriction_mask`) and the planner's
    row estimate build this array and test a table's distinct instants
    against it with :func:`instants_member_mask`, so a restriction cannot
    accept an instant in one place and reject it in another.
    """
    return np.array(sorted(float(t) for t in set(instants)), dtype=float)


def instants_member_mask(t: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Which of ``t`` match some instant of the sorted array ``wanted``.

    Membership is ulp-tolerant: an instant matches when it lies within
    ``INSTANT_MATCH_ULPS`` units in the last place of its nearest
    neighbor in ``wanted``.  Exact float set membership is wrong here —
    instants arriving from interpolation or granule arithmetic can
    differ from the registered member by 1 ulp, and a strict ``==``
    silently drops those rows.  The tolerance is a few ulps, far below
    the spacing of distinct registered instants, so no two members are
    ever conflated.
    """
    t = np.asarray(t, dtype=float)
    if wanted.size == 0:
        return np.zeros(t.shape, dtype=bool)
    slots = np.searchsorted(wanted, t)
    below = np.clip(slots - 1, 0, wanted.size - 1)
    above = np.minimum(slots, wanted.size - 1)
    # np.spacing(x) is one ulp at |x|; the max(|t|, 1) floor keeps the
    # tolerance meaningful for instants at or around zero.
    tolerance = INSTANT_MATCH_ULPS * np.spacing(np.maximum(np.abs(t), 1.0))
    return (np.abs(t - wanted[below]) <= tolerance) | (
        np.abs(t - wanted[above]) <= tolerance
    )


#: Serializes :meth:`MOFT._flush` (rare: once per burst of ``add`` calls).
_FLUSH_LOCK = threading.Lock()

#: The index of a table without rows.
_NO_ROWS = SegmentIndex(
    np.empty(0, dtype=object), np.empty(0, dtype=np.intp),
    np.zeros(1, dtype=np.intp),
)


class MOFT:
    """An in-memory columnar moving-object fact table."""

    def __init__(self, name: str = "FM") -> None:
        self.name = name
        no_rows = np.empty(0)
        self._install(
            _NO_ROWS.oids, np.empty(0, dtype=np.int32), no_rows, no_rows,
            no_rows, _NO_ROWS,
        )
        # add()'s samples, (oid, t) -> (x, y): every read flushes them.
        self._pending: Dict[Tuple[Hashable, float], Tuple[float, float]] = {}
        # Mutation counter: rows are append-only, so ``(version, n)``
        # snapshots let derived structures (the pre-aggregation store)
        # detect staleness and read ``rows[snapshot_n:]`` as the delta.
        self._version = 0

    def __getstate__(self) -> dict:
        # Pickles (process shards, stored stores) carry the
        # representation only; the rest is rebuilt on demand.
        self._flush()
        return {**self.__dict__, **dict.fromkeys(self._DERIVED)}

    #: The index, the id -> code map, the ``repr`` order and the summaries.
    _DERIVED = (
        "_segments", "_inherited", "_code_of", "_repr_order", "_time_range",
        "_bbox", "_instant_counts", "_instant_codes",
    )

    def _install(
        self, oids: np.ndarray, codes: np.ndarray, t: np.ndarray,
        x: np.ndarray, y: np.ndarray, index: Optional[SegmentIndex] = None,
        code_of: Optional[Dict[Hashable, int]] = None,
    ) -> None:
        """Set the representation and drop what was derived from the old
        one.  The index is built on first use unless given (a
        ``mask_rows`` child is given its parent's and its mask instead,
        ``_inherited``, and filters the one by the other)."""
        self._oids, self._codes = oids, codes
        self._t, self._x, self._y = t, x, y
        for name in self._DERIVED:
            setattr(self, name, None)
        self._segments, self._code_of = index, code_of

    @property
    def version(self) -> int:
        """Monotone mutation counter (bumped by every append)."""
        return self._version

    def __len__(self) -> int:
        self._flush()
        return self._t.shape[0]

    def __repr__(self) -> str:
        return (
            f"MOFT({self.name!r}, samples={len(self)}, "
            f"objects={len(self.oids)})"
        )

    # -- loading ---------------------------------------------------------------

    def add(self, oid: Hashable, t: float, x: float, y: float) -> None:
        """Append one sample; ``(oid, t)`` pairs must be unique, the
        numbers finite and ``oid`` hashable."""
        key, point = (oid, float(t)), (float(x), float(y))
        if not all(map(math.isfinite, (key[1], *point))):
            raise TrajectoryError(f"non-finite sample {(oid, t, x, y)!r}")
        try:
            twin = key in self._pending or (
                oid in self._code_map() and self._row_at(oid, key[1]) is not None
            )
        except TypeError as exc:
            raise TrajectoryError(f"unhashable object id: {exc}") from exc
        if twin:
            raise _twin_error(oid, t)
        self._pending[key] = point
        self._version += 1

    def add_many(
        self, samples: Iterable[Tuple[Hashable, float, float, float]]
    ) -> None:
        """Append many ``(oid, t, x, y)`` tuples."""
        for oid, t, x, y in samples:
            self.add(oid, t, x, y)

    def _flush(self) -> None:
        """Move the samples :meth:`add` buffered into the columns.  (A
        table built by ``add`` may be read first by several threads at
        once: one of them flushes, the others wait for it.)"""
        if self._pending:
            with _FLUSH_LOCK:
                pending = self._pending
                if pending:
                    (oids, ts), (xs, ys) = zip(*pending), zip(*pending.values())
                    self._install(*self._appended(oids, ts, xs, ys, False))
                    self._pending = {}

    def _appended(
        self, oids: Ids, ts: Numbers, xs: Numbers, ys: Numbers, validate: bool
    ) -> tuple:
        """:meth:`_install`'s arguments for this table's columns followed
        by the given ones (this table is left as it is).  The index is
        extended when this table holds one or ``validate`` asks for the
        uniqueness check, over the runs of the objects the delta touches."""
        ids = oids.tolist() if isinstance(oids, np.ndarray) else list(oids)
        t, x, y = (np.asarray(v, dtype=float) for v in (ts, xs, ys))
        if not t.shape == x.shape == y.shape == (len(ids),):
            raise TrajectoryError(
                f"column lengths differ: oids={len(ids)}, ts={len(t)}, "
                f"xs={len(x)}, ys={len(y)}"
            )
        bad = np.flatnonzero(~(np.isfinite(t) & np.isfinite(x) & np.isfinite(y)))
        if bad.size:
            row = int(bad[0])
            sample = (ids[row], float(t[row]), float(x[row]), float(y[row]))
            raise TrajectoryError(f"non-finite sample {sample!r}")
        known = self._code_map()
        try:
            codes, fresh = intern(known, ids)
        except TypeError as exc:
            raise TrajectoryError(f"unhashable object id: {exc}") from exc
        oid_table, code_of = self._oids, known
        if fresh:
            added = np.fromiter(fresh, dtype=object, count=len(fresh))
            oid_table = np.concatenate((oid_table, added))
            code_of = {**known, **fresh}
        all_codes = np.concatenate((self._codes, codes), dtype=np.int32)
        t_all = np.concatenate((self._t, t))
        index = None
        held = self._segments is not None or self._inherited is not None
        if validate or (held and self._t.shape[0]):
            index = self._index().extend(
                oid_table, t_all, codes, np.lexsort((t, codes)), validate
            )
        return (
            oid_table, all_codes, t_all,
            np.concatenate((self._x, x)), np.concatenate((self._y, y)),
            index, code_of,
        )

    @classmethod
    def from_columns(
        cls, oids: Ids, ts: Numbers, xs: Numbers, ys: Numbers,
        name: str = "FM", validate: bool = True,
    ) -> "MOFT":
        """Bulk-construct a table from equal-length columns (a numeric or
        string id array gives Python ``int``/``str`` ids).

        ``validate`` builds the segment index now and checks the
        ``(oid, t)`` invariant on it.  Pass ``False`` only when the
        columns provably satisfy it already; the index is then built on
        first use.  Non-finite numbers and unhashable ids are refused
        either way.
        """
        moft = cls(name)
        moft._install(*moft._appended(oids, ts, xs, ys, validate))
        return moft

    def appended(
        self, oids: Ids, ts: Numbers, xs: Numbers, ys: Numbers
    ) -> "MOFT":
        """A new table: this one's rows, then the given columns (checked
        as :meth:`extend_columns` checks them); this one is not touched.
        How each ingest flush publishes its snapshot (:mod:`repro.ingest`)."""
        self._flush()
        table = MOFT(self.name)
        table._install(*self._appended(oids, ts, xs, ys, validate=True))
        return table

    def extend_columns(
        self, oids: Ids, ts: Numbers, xs: Numbers, ys: Numbers,
        validate: bool = True,
    ) -> int:
        """Bulk-append whole columns; returns the first new row index.

        The columnar sibling of :meth:`add_many`: one append of the
        whole batch, one version bump.  With ``validate=True`` the
        appended ``(oid, t)`` pairs are checked unique among themselves
        and against the existing rows.
        """
        self._flush()
        first = self._t.shape[0]
        state = self._appended(oids, ts, xs, ys, validate)
        if len(ts):
            self._install(*state)
            self._version += 1
        return first

    # -- columnar persistence ----------------------------------------------------

    def save(self, path, include_index: bool = True) -> int:
        """Write this table as one columnar file (see :mod:`repro.mo.storage`).

        Persists the ``(oid, t, x, y)`` columns plus (by default) the
        per-object time-sorted index as mmap-able little-endian blobs.
        Returns the number of bytes written.  Raises
        :class:`~repro.errors.MoftStorageError` for object ids the
        format cannot encode (anything but ``str``/``int``).
        """
        from repro.mo import storage

        return storage.save_moft(self, path, include_index=include_index)

    @classmethod
    def load(cls, path, mmap: bool = True) -> "MOFT":
        """Load a columnar file written by :meth:`save`.

        With ``mmap=True`` (default) the columns are zero-copy views
        over the mapped file and the stored per-object index is the
        table's :meth:`segment_index`.  Raises
        :class:`~repro.errors.MoftStorageError` on truncated or corrupt
        files — never a raw numpy/struct traceback.
        """
        from repro.mo import storage

        return storage.load_moft(path, mmap=mmap)

    # -- row access ----------------------------------------------------------------

    def rows(self) -> Iterator[Dict[str, Hashable]]:
        """Iterate samples as ``{'oid', 't', 'x', 'y'}`` dictionaries."""
        for oid, t, x, y in self.tuples():
            yield {"oid": oid, "t": t, "x": x, "y": y}

    def tuples(self) -> Iterator[Tuple[Hashable, float, float, float]]:
        """Iterate samples as plain ``(oid, t, x, y)`` tuples."""
        t, x, y = self.as_arrays()
        return zip(self.oid_column().tolist(), t.tolist(), x.tolist(), y.tolist())

    def objects(self) -> Set[Hashable]:
        """All distinct object identifiers."""
        return set(self.oids.tolist())

    def instant_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """The distinct sampling instants, ascending, and the rows at
        each (cached until the next append): how many rows a time
        restriction keeps, without a pass over the rows."""
        self._flush()
        if self._instant_counts is None:
            self._instant_counts = np.unique(self._t, return_counts=True)
        return self._instant_counts

    def instant_codes(self) -> Tuple[np.ndarray, np.ndarray]:
        """The distinct sampling instants, ascending, and each row's
        position among them, in the smallest unsigned dtype that holds
        it (cached until the next append, with :meth:`instant_counts`)."""
        self._flush()
        if self._instant_codes is None:
            distinct, codes, counts = np.unique(
                self._t, return_inverse=True, return_counts=True
            )
            if self._instant_counts is None:
                self._instant_counts = (distinct, counts)
            dtype = np.min_scalar_type(max(distinct.shape[0] - 1, 0))
            self._instant_codes = (distinct, codes.astype(dtype))
        return self._instant_codes

    def instants_mask(self, instants: Iterable[float]) -> np.ndarray:
        """Which rows' instants are in ``instants``: the ulp-tolerant
        test of :func:`instants_member_mask`, made once per distinct
        instant and gathered by each row's :meth:`instant_codes`.  Exact,
        as membership is a function of the instant's value alone."""
        distinct, codes = self.instant_codes()
        return instants_member_mask(distinct, sorted_instants(instants))[codes]

    def instants(self) -> Set[float]:
        """All distinct sampling instants."""
        t, _, _ = self.as_arrays()
        return set(t.tolist())

    def sample_count(self, oid: Hashable) -> int:
        """Number of samples of one object (0 for unknown objects)."""
        code = self.object_code(oid)
        if code is None:
            return 0
        offsets = self._index().offsets
        return int(offsets[code + 1] - offsets[code])

    # -- columnar access --------------------------------------------------------------

    @property
    def oids(self) -> np.ndarray:
        """The intern table: code ``i`` is object ``oids[i]``, in the order
        the rows first bring them (a :meth:`mask_rows` child of an
        indexed table keeps its parent's)."""
        self._flush()
        return self._oids

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(t, x, y)`` as float arrays in insertion order (the
        rows' objects: :meth:`object_codes`)."""
        self._flush()
        return self._t, self._x, self._y

    def object_codes(self) -> np.ndarray:
        """Each row's object as its position in :attr:`oids` (and in
        :meth:`segment_index` ``.oids``): what scans and folds key by."""
        self._flush()
        return self._codes

    def oid_column(self) -> np.ndarray:
        """The object-id column as an object-dtype array, decoded from
        the codes per call (``oids[object_codes()]``; not kept)."""
        return self.oids[self._codes]

    def object_code(self, oid: Hashable) -> Optional[int]:
        """``oid``'s code (None: the table has no sample of it)."""
        self._flush()
        return self._code_map().get(oid)

    def object_mask(self, oid: Hashable) -> np.ndarray:
        """Boolean mask over rows selecting one object's samples."""
        code = self.object_code(oid)
        return np.zeros(len(self), bool) if code is None else self._codes == code

    def _code_map(self) -> Dict[Hashable, int]:
        """``oid -> code`` over the columns (derived from :attr:`oids`)."""
        if self._code_of is None:
            self._code_of = dict(zip(self._oids.tolist(), count()))
        return self._code_of

    def object_set(self, codes: np.ndarray) -> ObjectSet:
        """The objects at ``codes`` (ascending, distinct positions in
        :attr:`oids`) as an answer over this table."""
        return ObjectSet(self.oids, codes, self)

    def encode(self, ids: Iterable[Hashable]) -> ObjectSet:
        """``ids``, objects of this table, as an answer over it: one
        pass through the id -> code map, made distinct and sorted by a
        scatter over the intern table (a repeated id counts once)."""
        self._flush()
        try:
            codes = np.fromiter(map(self._code_map().__getitem__, ids), np.intp)
        except KeyError as missing:
            raise TrajectoryError(
                f"no samples for object {missing.args[0]!r}"
            ) from None
        seen = np.zeros(self._oids.shape[0], dtype=bool)
        seen[codes] = True
        return self.object_set(np.flatnonzero(seen))

    def repr_order(self) -> Tuple[np.ndarray, bool]:
        """The codes sorted by their ids' ``repr`` (ties in code order),
        and whether every id is exactly a ``str`` or an ``int``
        (:data:`PLAIN_IDS`).  Made at the first call and kept until the
        next append: what :meth:`ObjectSet.in_repr_order` and
        the POI cell table read instead of sorting ids."""
        self._flush()
        if self._repr_order is None:
            ids = self._oids.tolist()
            reprs = list(map(repr, ids))
            order = sorted(range(len(ids)), key=reprs.__getitem__)
            self._repr_order = (
                np.array(order, dtype=np.intp),
                PLAIN_IDS.issuperset(map(type, ids)),
            )
        return self._repr_order

    # -- per-object histories ------------------------------------------------------------

    def _object_order(self, oid: Hashable) -> Tuple[np.ndarray, np.ndarray]:
        """``(sorted times, row indices sorted by time)`` of one object:
        its run of the segment index (of the columns: callers flush)."""
        code = self._code_map().get(oid)
        if code is None:
            raise TrajectoryError(f"no samples for object {oid!r}")
        _, perm, offsets = self._index()
        rows = perm[offsets[code]:offsets[code + 1]]
        return self._t[rows], rows

    def _row_at(self, oid: Hashable, t: float) -> Optional[int]:
        """The row of ``oid``'s sample at ``t`` (None: it has none)."""
        times, rows = self._object_order(oid)
        slot = int(np.searchsorted(times, t))
        if slot < times.shape[0] and times[slot] == t:
            return int(rows[slot])
        return None

    # -- the segment table ----------------------------------------------------------------

    def segment_index(self) -> SegmentIndex:
        """The rows in (object, time) order (extended by every append).

        Mmap-loaded tables get it from the file's CSR index, validated
        and appended-to tables by :meth:`SegmentIndex.extend` and
        :meth:`mask_rows` children filter their parent's (on first use);
        anything else pays one ``lexsort`` (:meth:`SegmentIndex.build`).
        Its ``oids`` are :attr:`oids`, each object's rows in the stable
        time order of :meth:`history`.
        """
        self._flush()
        return self._index()

    def _index(self) -> SegmentIndex:
        """:meth:`segment_index` of the columns, pending samples aside."""
        inherited = self._inherited  # (read once: readers may race)
        if self._segments is None and inherited is not None:
            # This table's (object, time) order is its parent's,
            # filtered: no sort.
            parent, mask = inherited
            _, perm, bounds = parent.masked(mask)
            alive = np.diff(bounds) > 0
            self._segments = SegmentIndex(
                self._oids,
                (np.cumsum(mask) - 1)[perm],
                np.concatenate(([0], bounds[1:][alive])),
            )
            self._inherited = None
        if self._segments is None:
            self._segments = SegmentIndex.build(self._oids, self._codes, self._t)
        return self._segments

    def segments(self, rows: Optional[np.ndarray] = None) -> Iterator[SegmentBatch]:
        """Every consecutive-sample segment, in batches of whole objects.

        The coordinate arrays are gathered per batch and never cached:
        a batch covers as many objects as fit in ``SEGMENT_BATCH_ROWS``
        rows (at least one), so a scan's transient memory does not grow
        with the table.  Single-sample objects have no segments.
        ``rows``, a row mask, gives a ``mask_rows(rows)`` child's
        segments and batches, read off :meth:`SegmentIndex.masked`.
        """
        index = self.segment_index()
        _, perm, offsets = index if rows is None else index.masked(rows)
        t, x, y = self.as_arrays()
        lo = 0
        while offsets[lo] < offsets[-1]:
            # (Objects that keep no row have empty runs: none opens a batch.)
            lo = int(np.searchsorted(offsets, offsets[lo], "right")) - 1
            full = offsets[lo] + SEGMENT_BATCH_ROWS
            hi = max(lo + 1, int(np.searchsorted(offsets, full, "right")) - 1)
            run = perm[offsets[lo]:offsets[hi]]
            local = offsets[lo:hi + 1] - offsets[lo]
            # Row i joins row i + 1 unless i + 1 opens the next object.
            joined = np.ones(run.shape[0] - 1, dtype=bool)
            opens = local[1:-1]
            joined[opens[opens < run.shape[0]] - 1] = False
            # An object of c rows has c - 1 segments.
            counts = np.maximum(np.diff(local) - 1, 0)
            tr, xr, yr = t[run], x[run], y[run]
            yield SegmentBatch(
                tr[:-1][joined], tr[1:][joined],
                xr[:-1][joined], yr[:-1][joined],
                xr[1:][joined], yr[1:][joined],
                np.repeat(np.arange(lo, hi), counts),
                first=lo,
                offsets=np.concatenate(([0], np.cumsum(counts))),
            )
            lo = hi

    def history(self, oid: Hashable) -> List[Tuple[float, float, float]]:
        """Return one object's ``(t, x, y)`` samples sorted by time."""
        self._flush()
        times, rows = self._object_order(oid)
        return list(zip(
            times.tolist(), self._x[rows].tolist(), self._y[rows].tolist()
        ))

    def trajectory_sample(self, oid: Hashable) -> TrajectorySample:
        """Return one object's history as a :class:`TrajectorySample`."""
        return TrajectorySample(self.history(oid))

    def position(self, oid: Hashable, t: float) -> Optional[Point]:
        """Return the *sampled* position of an object at an instant, if any.

        Binary search over the cached time-sorted index — O(log n) per
        lookup instead of a linear scan of a freshly sorted history.
        """
        self._flush()
        row = self._row_at(oid, float(t))
        return None if row is None else Point(float(self._x[row]), float(self._y[row]))

    # -- restriction -----------------------------------------------------------------------

    def mask_rows(self, mask: np.ndarray) -> "MOFT":
        """Return the sub-table of rows selected by a boolean mask.

        Row order is preserved, so the result is row-for-row identical to
        a per-row rebuild.  The kept codes are renumbered (:func:`recode`)
        and the ids stay where they are; the ``(oid, t)`` invariant is
        inherited from this table — no revalidation happens.  A child of
        a table that holds its index keeps that object order and filters
        the index on first use; any other comes in first-appearance order.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != len(self):
            raise TrajectoryError(
                f"mask has {mask.shape[0]} entries for {len(self)} rows"
            )
        t, x, y = self.as_arrays()
        held = self._segments is not None or self._inherited is not None
        codes, oids = recode(self._codes[mask], self._oids, not held)
        child = MOFT(self.name)
        child._install(oids, codes, t[mask], x[mask], y[mask])
        if held:
            child._inherited = (self._index(), mask)
        return child

    def filter(self, predicate: Callable[[Dict[str, Hashable]], bool]) -> "MOFT":
        """Return a new MOFT with the rows satisfying a row predicate."""
        mask = np.fromiter(
            (bool(predicate(row)) for row in self.rows()),
            dtype=bool,
            count=len(self),
        )
        return self.mask_rows(mask)

    def restrict_instants(self, instants: Set[float]) -> "MOFT":
        """Keep the samples whose instant is in ``instants``.

        This is the paper's ``FM_morning`` construction: the sub-fact-table
        of samples taken at instants rolling up to a temporal member.
        Membership is the shared ulp-tolerant sorted-array test
        (:meth:`instants_mask`), so instants that drifted a few ulps
        through interpolation or granule arithmetic still match.
        """
        return self.mask_rows(self.instants_mask(instants))

    def restrict_objects(self, oids: Set[Hashable]) -> "MOFT":
        """Keep the samples of the given objects."""
        wanted = set(oids)
        table = self.oids
        keep = np.fromiter(
            (oid in wanted for oid in table.tolist()),
            dtype=bool, count=table.shape[0],
        )
        return self.mask_rows(keep[self._codes])

    # -- partitioning ----------------------------------------------------------------

    def partition_by_objects(self, n: int) -> List["MOFT"]:
        """Split into ``n`` shards, each holding whole objects.

        Every object's samples land in exactly one shard, so trajectory
        semantics (interpolation between consecutive samples) survive the
        split — the property parallel trajectory queries rely on.  Objects
        are assigned greedily by descending sample count to the least
        loaded shard (deterministic: ties break on the object id's repr),
        so shards are balanced by row count, not object count.

        Objects and their sample counts are read off the segment index
        and the shards built by :meth:`mask_rows` — whole-column boolean
        slicing, no per-row copies — so every shard starts with its
        (object, time) order already known.  Some shards may be empty
        when the table has fewer objects than ``n``.
        """
        if n < 1:
            raise TrajectoryError(f"shard count must be >= 1, got {n}")
        index = self.segment_index()
        oids = index.oids.tolist()
        counts = np.diff(index.offsets).tolist()
        loads = [0] * n
        shard_of = np.zeros(len(oids), dtype=np.intp)
        for i in sorted(
            range(len(oids)), key=lambda i: (-counts[i], repr(oids[i]))
        ):
            shard = min(range(n), key=lambda s: (loads[s], s))
            loads[shard] += counts[i]
            shard_of[i] = shard
        row_shard = shard_of[self._codes]
        return [self.mask_rows(row_shard == shard) for shard in range(n)]

    @classmethod
    def concat(
        cls, shards: Sequence["MOFT"], name: str = "FM", validate: bool = True
    ) -> "MOFT":
        """Concatenate tables column-wise into one MOFT.

        The inverse of :meth:`partition_by_objects` up to row order:
        concatenating its shards yields a row-*set*-identical table.
        The shards' codes are mapped into one intern table, in
        first-appearance order.  Pass ``validate=False`` only when the
        inputs are known disjoint in ``(oid, t)`` — e.g. shards of one
        valid table.
        """
        tables = [shard for shard in shards if len(shard)]
        moft = cls(name)
        if not tables:
            return moft
        known: Dict[Hashable, int] = {}
        codes = []
        for table in tables:
            mapped, fresh = intern(known, table.oids.tolist())
            known.update(fresh)
            codes.append(mapped[table.object_codes()])
        codes, oids = recode(
            np.concatenate(codes, dtype=np.int32),
            np.fromiter(known, dtype=object, count=len(known)),
            by_first_row=True,
        )
        t, x, y = map(np.concatenate, zip(*(c.as_arrays() for c in tables)))
        index = None
        if validate:
            order = np.lexsort((t, codes))
            index = _NO_ROWS.extend(oids, t, codes, order, check=True)
        moft._install(oids, codes, t, x, y, index)
        return moft

    def time_range(self) -> Tuple[float, float]:
        """Return ``(min t, max t)`` over all samples (cached until the
        next append)."""
        self._flush()
        if not self._t.shape[0]:
            raise TrajectoryError(f"MOFT {self.name!r} is empty")
        if self._time_range is None:
            self._time_range = (float(self._t.min()), float(self._t.max()))
        return self._time_range

    def bbox(self) -> BoundingBox:
        """Spatial bounding box over all sampled positions (cached until
        the next append)."""
        self._flush()
        if not self._x.shape[0]:
            raise TrajectoryError(f"MOFT {self.name!r} is empty")
        if self._bbox is None:
            x, y = self._x, self._y
            self._bbox = BoundingBox(
                float(x.min()), float(y.min()), float(x.max()), float(y.max())
            )
        return self._bbox
