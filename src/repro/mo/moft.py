"""The Moving Object Fact Table (MOFT) — Section 3 of the paper.

"A distinguished Moving Object Fact Table (MOFT), that contains tuples of
the form ``(Oid, t, x, y)``, where ``Oid`` is the identifier of the moving
object, ``t`` is a time instant, and ``(x, y)`` are the coordinates of the
object ``Oid`` at instant ``t``."

The table is a small columnar storage engine.  The ``(t, x, y)`` columns
are NumPy float arrays and the ``oid`` column is an object array; bulk
construction and restriction operate on whole columns:

* :meth:`from_columns` constructs a table from columns in one shot;
* :meth:`filter`, :meth:`restrict_instants` and :meth:`restrict_objects`
  produce restricted tables by boolean-mask slicing (:meth:`mask_rows`) —
  no per-row revalidation, no per-row appends;
* per-object access (:meth:`history`, :meth:`position`,
  :meth:`trajectory_sample`) goes through a cached time-sorted row index,
  so a point lookup is a binary search rather than a sort-per-call;
* whole-table trajectory scans go through the **segment table**
  (:meth:`segment_index`, :meth:`segments`): every object's
  consecutive-sample segments as flat arrays in (object, time) order, so
  a scan hands the batch kernels all objects at once.

Storage is dual: append-friendly Python row lists and the cached column
arrays, each materialized lazily from the other.  ``add()`` works on the
lists (invalidating the arrays); bulk construction installs the arrays
and defers the lists until row iteration or another append needs them.

The table enforces the physical invariant that an object occupies at most
one position per instant.
"""

from __future__ import annotations

from itertools import chain
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
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


class SegmentIndex(NamedTuple):
    """A table's rows in (object, time) order — the cached half of the
    segment table.  ``oids[i]``'s samples are rows
    ``perm[offsets[i]:offsets[i + 1]]``, ascending in time."""

    oids: np.ndarray
    perm: np.ndarray
    offsets: np.ndarray

    def per_row(self, values: np.ndarray) -> np.ndarray:
        """Spread one value per object over the object's rows."""
        out = np.empty(self.perm.shape[0], dtype=values.dtype)
        out[self.perm] = np.repeat(values, np.diff(self.offsets))
        return out


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

    def near(
        self, box: BoundingBox, subset: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Indices of the segments (of ``subset``) whose box meets ``box``.

        The per-geometry prefilter of every batched scan: what it drops
        can touch nothing inside ``box``.
        """
        if self._bounds is None:
            self._bounds = (
                np.minimum(self.x0, self.x1), np.maximum(self.x0, self.x1),
                np.minimum(self.y0, self.y1), np.maximum(self.y0, self.y1),
            )
        minx, maxx, miny, maxy = self._bounds
        if subset is not None:
            minx, maxx = minx[subset], maxx[subset]
            miny, maxy = miny[subset], maxy[subset]
        keep = ~(
            (minx > box.max_x) | (maxx < box.min_x)
            | (miny > box.max_y) | (maxy < box.min_y)
        )
        return np.flatnonzero(keep) if subset is None else subset[keep]


def sorted_instants(instants: Iterable[float]) -> np.ndarray:
    """Canonicalize an instant collection to a sorted float array.

    The canonical representation behind every instant-membership test:
    :meth:`MOFT.restrict_instants` and the optimizer's
    :class:`~repro.query.optimizer.FilteredMoft` both build this array
    and test against it with :func:`instants_member_mask`, so a query
    cannot accept an instant in one place and reject it in the other.
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


def is_member_instant(t: float, wanted: np.ndarray) -> bool:
    """Scalar form of :func:`instants_member_mask` (same tolerance)."""
    return bool(instants_member_mask(np.array([float(t)]), wanted)[0])


class MOFT:
    """An in-memory columnar moving-object fact table."""

    def __init__(self, name: str = "FM") -> None:
        self.name = name
        self._n = 0
        # Row storage; None after bulk construction until materialized.
        self._oids: Optional[List[Hashable]] = []
        self._ts: Optional[List[float]] = []
        self._xs: Optional[List[float]] = []
        self._ys: Optional[List[float]] = []
        # (oid, t) uniqueness set — rebuilt lazily before the first add()
        # on a bulk-constructed table.
        self._seen: Optional[Set[Tuple[Hashable, float]]] = set()
        # oid -> row indices in insertion order; built lazily.
        self._by_object: Optional[Dict[Hashable, List[int]]] = {}
        # Cached columnar views (authoritative while the lists are None).
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._oid_col: Optional[np.ndarray] = None
        # oid -> (times sorted ascending, row indices in that order).
        self._order: Dict[Hashable, Tuple[np.ndarray, np.ndarray]] = {}
        # All rows in (object, time) order; dropped on append.  A
        # ``mask_rows`` child starts with its parent's index and its
        # mask instead, and filters the one by the other on first use.
        self._segments: Optional[SegmentIndex] = None
        self._inherited: Optional[Tuple[SegmentIndex, np.ndarray]] = None
        # Mutation counter: rows are append-only, so ``(version, n)``
        # snapshots let derived structures (the pre-aggregation store)
        # detect staleness and read ``rows[snapshot_n:]`` as the delta.
        self._version = 0

    def __getstate__(self) -> dict:
        # The segment index is rebuilt on demand: pickles (process
        # shards, stored stores) carry the columns, not the cache.
        return {**self.__dict__, "_segments": None, "_inherited": None}

    @property
    def version(self) -> int:
        """Monotone mutation counter (bumped by every append)."""
        return self._version

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return (
            f"MOFT({self.name!r}, samples={len(self)}, "
            f"objects={len(self._object_rows())})"
        )

    # -- storage duality -------------------------------------------------------

    def _lists(
        self,
    ) -> Tuple[List[Hashable], List[float], List[float], List[float]]:
        """Row lists, materialized from the column arrays when absent."""
        if self._ts is None:
            t, x, y = self._arrays  # type: ignore[misc]
            self._ts = t.tolist()
            self._xs = x.tolist()
            self._ys = y.tolist()
            self._oids = self._oid_col.tolist()  # type: ignore[union-attr]
        return self._oids, self._ts, self._xs, self._ys  # type: ignore[return-value]

    # -- loading ---------------------------------------------------------------

    def add(self, oid: Hashable, t: float, x: float, y: float) -> None:
        """Append one sample; ``(oid, t)`` pairs must be unique."""
        oids, ts, xs, ys = self._lists()
        if self._seen is None:
            self._seen = set(zip(oids, ts))
        key = (oid, float(t))
        if key in self._seen:
            raise TrajectoryError(
                f"object {oid!r} already has a sample at t={t} "
                f"(an object is at one point at a given instant)"
            )
        self._seen.add(key)
        index = self._n
        oids.append(oid)
        ts.append(float(t))
        xs.append(float(x))
        ys.append(float(y))
        self._n += 1
        self._version += 1
        if self._by_object is not None:
            self._by_object.setdefault(oid, []).append(index)
        self._arrays = None
        self._oid_col = None
        self._order.pop(oid, None)
        self._segments = self._inherited = None

    def add_many(
        self, samples: Iterable[Tuple[Hashable, float, float, float]]
    ) -> None:
        """Append many ``(oid, t, x, y)`` tuples."""
        for oid, t, x, y in samples:
            self.add(oid, t, x, y)

    @classmethod
    def from_columns(
        cls,
        oids: Sequence[Hashable],
        ts: Sequence[float],
        xs: Sequence[float],
        ys: Sequence[float],
        name: str = "FM",
        validate: bool = True,
    ) -> "MOFT":
        """Bulk-construct a table from whole columns.

        Parameters
        ----------
        oids, ts, xs, ys:
            Equal-length columns (sequences or NumPy arrays).
        validate:
            Check the ``(oid, t)`` uniqueness invariant.  Pass ``False``
            only when the columns provably satisfy it already — e.g. when
            mask-slicing an existing valid table.
        """
        t_col = np.asarray(ts, dtype=float)
        x_col = np.asarray(xs, dtype=float)
        y_col = np.asarray(ys, dtype=float)
        if isinstance(oids, np.ndarray) and oids.dtype == object:
            oid_col = oids.copy()
        else:
            oid_col = np.fromiter(oids, dtype=object, count=len(oids))
        n = oid_col.shape[0]
        if not (t_col.shape[0] == x_col.shape[0] == y_col.shape[0] == n):
            raise TrajectoryError(
                f"column lengths differ: oids={n}, ts={t_col.shape[0]}, "
                f"xs={x_col.shape[0]}, ys={y_col.shape[0]}"
            )
        moft = cls(name)
        moft._n = n
        moft._oids = moft._ts = moft._xs = moft._ys = None
        moft._arrays = (t_col, x_col, y_col)
        moft._oid_col = oid_col
        moft._by_object = None
        if validate:
            seen = set(zip(oid_col.tolist(), t_col.tolist()))
            if len(seen) != n:
                counts: Dict[Tuple[Hashable, float], int] = {}
                for key in zip(oid_col.tolist(), t_col.tolist()):
                    counts[key] = counts.get(key, 0) + 1
                oid, t = next(k for k, c in counts.items() if c > 1)
                raise TrajectoryError(
                    f"object {oid!r} already has a sample at t={t} "
                    f"(an object is at one point at a given instant)"
                )
            moft._seen = seen
        else:
            moft._seen = None
        return moft

    def extend_columns(
        self,
        oids: Sequence[Hashable],
        ts: Sequence[float],
        xs: Sequence[float],
        ys: Sequence[float],
        validate: bool = True,
    ) -> int:
        """Bulk-append whole columns; returns the first new row index.

        The columnar sibling of :meth:`add_many`: one array concatenation
        instead of per-row appends, one version bump for the whole batch.
        With ``validate=True`` the appended ``(oid, t)`` pairs are checked
        unique among themselves and against the existing rows.
        """
        t_new = np.asarray(ts, dtype=float)
        x_new = np.asarray(xs, dtype=float)
        y_new = np.asarray(ys, dtype=float)
        if isinstance(oids, np.ndarray) and oids.dtype == object:
            oid_new = oids.copy()
        else:
            oid_new = np.fromiter(oids, dtype=object, count=len(oids))
        n_new = oid_new.shape[0]
        if not (t_new.shape[0] == x_new.shape[0] == y_new.shape[0] == n_new):
            raise TrajectoryError(
                f"column lengths differ: oids={n_new}, ts={t_new.shape[0]}, "
                f"xs={x_new.shape[0]}, ys={y_new.shape[0]}"
            )
        if n_new == 0:
            return self._n
        if validate:
            if self._seen is None:
                oid_col = self.oid_column()
                t_col, _, _ = self.as_arrays()
                self._seen = set(zip(oid_col.tolist(), t_col.tolist()))
            fresh = list(zip(oid_new.tolist(), t_new.tolist()))
            fresh_set = set(fresh)
            if len(fresh_set) != len(fresh) or not self._seen.isdisjoint(
                fresh_set
            ):
                counts: Dict[Tuple[Hashable, float], int] = {}
                for key in fresh:
                    counts[key] = counts.get(key, 0) + 1
                oid, t = next(
                    k
                    for k, c in counts.items()
                    if c > 1 or k in self._seen
                )
                raise TrajectoryError(
                    f"object {oid!r} already has a sample at t={t} "
                    f"(an object is at one point at a given instant)"
                )
            self._seen.update(fresh_set)
        elif self._seen is not None:
            self._seen.update(zip(oid_new.tolist(), t_new.tolist()))
        t_col, x_col, y_col = self.as_arrays()
        oid_col = self.oid_column()
        first_new = self._n
        self._arrays = (
            np.concatenate([t_col, t_new]),
            np.concatenate([x_col, x_new]),
            np.concatenate([y_col, y_new]),
        )
        self._oid_col = np.concatenate([oid_col, oid_new])
        self._oids = self._ts = self._xs = self._ys = None
        self._n += n_new
        self._version += 1
        if self._by_object is not None:
            for offset, oid in enumerate(oid_new.tolist()):
                self._by_object.setdefault(oid, []).append(first_new + offset)
        for oid in set(oid_new.tolist()):
            self._order.pop(oid, None)
        self._segments = self._inherited = None
        return first_new

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
        over the mapped file and the stored per-object index pre-fills
        the sorted-order cache.  Raises
        :class:`~repro.errors.MoftStorageError` on truncated or corrupt
        files — never a raw numpy/struct traceback.
        """
        from repro.mo import storage

        return storage.load_moft(path, mmap=mmap)

    # -- row access ----------------------------------------------------------------

    def rows(self) -> Iterator[Dict[str, Hashable]]:
        """Iterate samples as ``{'oid', 't', 'x', 'y'}`` dictionaries."""
        oids, ts, xs, ys = self._lists()
        for i in range(self._n):
            yield {"oid": oids[i], "t": ts[i], "x": xs[i], "y": ys[i]}

    def tuples(self) -> Iterator[Tuple[Hashable, float, float, float]]:
        """Iterate samples as plain ``(oid, t, x, y)`` tuples."""
        oids, ts, xs, ys = self._lists()
        for i in range(self._n):
            yield (oids[i], ts[i], xs[i], ys[i])

    def objects(self) -> Set[Hashable]:
        """All distinct object identifiers."""
        if self._by_object is None and (
            self._segments is not None or self._inherited is not None
        ):
            return set(self.segment_index().oids.tolist())
        return set(self._object_rows())

    def instants(self) -> Set[float]:
        """All distinct sampling instants."""
        if self._ts is not None:
            return set(self._ts)
        t, _, _ = self.as_arrays()
        return set(t.tolist())

    def sample_count(self, oid: Hashable) -> int:
        """Number of samples of one object (0 for unknown objects)."""
        return len(self._object_rows().get(oid, ()))

    # -- columnar access --------------------------------------------------------------

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(t, x, y)`` as float arrays in insertion order.

        Built lazily and cached until the next :meth:`add`.  Use
        :meth:`oid_column` for the matching object-id column or
        :meth:`object_mask` to slice by object.
        """
        if self._arrays is None:
            self._arrays = (
                np.asarray(self._ts, dtype=float),
                np.asarray(self._xs, dtype=float),
                np.asarray(self._ys, dtype=float),
            )
        return self._arrays

    def oid_column(self) -> np.ndarray:
        """The object-id column as an object-dtype array (cached)."""
        if self._oid_col is None:
            self._oid_col = np.fromiter(
                self._oids, dtype=object, count=self._n
            )
        return self._oid_col

    def object_mask(self, oid: Hashable) -> np.ndarray:
        """Boolean mask over rows selecting one object's samples."""
        mask = np.zeros(self._n, dtype=bool)
        mask[self._object_rows().get(oid, [])] = True
        return mask

    def _object_rows(self) -> Dict[Hashable, List[int]]:
        """``oid -> row indices`` in insertion order (built lazily)."""
        if self._by_object is None:
            oids = self._oids if self._oids is not None else self.oid_column()
            by_object: Dict[Hashable, List[int]] = {}
            for index, oid in enumerate(oids):
                rows = by_object.get(oid)
                if rows is None:
                    by_object[oid] = [index]
                else:
                    rows.append(index)
            self._by_object = by_object
        return self._by_object

    # -- per-object histories ------------------------------------------------------------

    def _object_order(self, oid: Hashable) -> Tuple[np.ndarray, np.ndarray]:
        """Cached ``(sorted times, row indices sorted by time)`` of one object."""
        cached = self._order.get(oid)
        if cached is not None:
            return cached
        indices = self._object_rows().get(oid)
        if not indices:
            raise TrajectoryError(f"no samples for object {oid!r}")
        rows = np.asarray(indices, dtype=np.intp)
        t, _, _ = self.as_arrays()
        times = t[rows]
        order = np.argsort(times, kind="stable")
        entry = (times[order], rows[order])
        self._order[oid] = entry
        return entry

    # -- the segment table ----------------------------------------------------------------

    def segment_index(self) -> SegmentIndex:
        """The rows in (object, time) order (cached until the next append).

        Mmap-loaded tables get it from the file's CSR index and
        :meth:`mask_rows` children filter their parent's (on first use);
        anything else pays one ``lexsort``.  Objects come in first-appearance
        order (a child keeps its parent's), each object's rows in the
        stable time order of :meth:`history`.
        """
        inherited = self._inherited  # (read once: readers may race)
        if self._segments is None and inherited is not None:
            # This table's (object, time) order is its parent's,
            # filtered: no sort, no pass over the object column.
            (oids, perm, offsets), mask = inherited
            kept = mask[perm]
            bounds = np.concatenate(([0], np.cumsum(kept)))[offsets]
            alive = np.diff(bounds) > 0
            self._segments = SegmentIndex(
                oids[alive],
                (np.cumsum(mask) - 1)[perm[kept]],
                np.concatenate(([0], bounds[1:][alive])),
            )
            self._inherited = None
        if self._segments is None:
            by_object = self._object_rows()
            counts = np.fromiter(
                map(len, by_object.values()), dtype=np.intp,
                count=len(by_object),
            )
            rows = np.fromiter(
                chain.from_iterable(by_object.values()), dtype=np.intp,
                count=self._n,
            )
            t, _, _ = self.as_arrays()
            group = np.repeat(np.arange(counts.size), counts)
            offsets = np.zeros(counts.size + 1, dtype=np.intp)
            np.cumsum(counts, out=offsets[1:])
            self._segments = SegmentIndex(
                np.fromiter(by_object, dtype=object, count=counts.size),
                rows[np.lexsort((t[rows], group))],
                offsets,
            )
        return self._segments

    def segments(self) -> Iterator[SegmentBatch]:
        """Every consecutive-sample segment, in batches of whole objects.

        The coordinate arrays are gathered per batch and never cached:
        a batch covers as many objects as fit in ``SEGMENT_BATCH_ROWS``
        rows (at least one), so a scan's transient memory does not grow
        with the table.  Single-sample objects have no segments.
        """
        oids, perm, offsets = self.segment_index()
        t, x, y = self.as_arrays()
        lo, n_objects = 0, oids.shape[0]
        while lo < n_objects:
            full = offsets[lo] + SEGMENT_BATCH_ROWS
            hi = max(lo + 1, int(np.searchsorted(offsets, full, "right")) - 1)
            rows = perm[offsets[lo]:offsets[hi]]
            local = offsets[lo:hi + 1] - offsets[lo]
            # Row i joins row i + 1 unless i + 1 opens the next object.
            joined = np.ones(rows.shape[0] - 1, dtype=bool)
            joined[local[1:-1] - 1] = False
            tr, xr, yr = t[rows], x[rows], y[rows]
            yield SegmentBatch(
                tr[:-1][joined], tr[1:][joined],
                xr[:-1][joined], yr[:-1][joined],
                xr[1:][joined], yr[1:][joined],
                np.repeat(np.arange(lo, hi), np.diff(local) - 1),
                first=lo,
                # An object of c rows has c - 1 segments.
                offsets=local - np.arange(hi - lo + 1),
            )
            lo = hi

    def history(self, oid: Hashable) -> List[Tuple[float, float, float]]:
        """Return one object's ``(t, x, y)`` samples sorted by time."""
        times, rows = self._object_order(oid)
        _, x, y = self.as_arrays()
        return list(zip(times.tolist(), x[rows].tolist(), y[rows].tolist()))

    def trajectory_sample(self, oid: Hashable) -> TrajectorySample:
        """Return one object's history as a :class:`TrajectorySample`."""
        return TrajectorySample(self.history(oid))

    def position(self, oid: Hashable, t: float) -> Optional[Point]:
        """Return the *sampled* position of an object at an instant, if any.

        Binary search over the cached time-sorted index — O(log n) per
        lookup instead of a linear scan of a freshly sorted history.
        """
        times, rows = self._object_order(oid)
        slot = int(np.searchsorted(times, float(t)))
        if slot == times.shape[0] or times[slot] != float(t):
            return None
        row = int(rows[slot])
        _, x, y = self.as_arrays()
        return Point(float(x[row]), float(y[row]))

    # -- restriction -----------------------------------------------------------------------

    def mask_rows(self, mask: np.ndarray) -> "MOFT":
        """Return the sub-table of rows selected by a boolean mask.

        Row order is preserved, so the result is row-for-row identical to
        a per-row rebuild.  The ``(oid, t)`` invariant is inherited from
        this table — no revalidation happens.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != self._n:
            raise TrajectoryError(
                f"mask has {mask.shape[0]} entries for {self._n} rows"
            )
        t, x, y = self.as_arrays()
        child = MOFT.from_columns(
            self.oid_column()[mask],
            t[mask],
            x[mask],
            y[mask],
            name=self.name,
            validate=False,
        )
        if self._segments is not None or self._inherited is not None:
            child._inherited = (self.segment_index(), mask)
        return child

    def filter(self, predicate: Callable[[Dict[str, Hashable]], bool]) -> "MOFT":
        """Return a new MOFT with the rows satisfying a row predicate."""
        mask = np.fromiter(
            (bool(predicate(row)) for row in self.rows()),
            dtype=bool,
            count=self._n,
        )
        return self.mask_rows(mask)

    def restrict_instants(self, instants: Set[float]) -> "MOFT":
        """Keep the samples whose instant is in ``instants``.

        This is the paper's ``FM_morning`` construction: the sub-fact-table
        of samples taken at instants rolling up to a temporal member.
        Membership is the shared ulp-tolerant sorted-array test
        (:func:`instants_member_mask`), so instants that drifted a few
        ulps through interpolation or granule arithmetic still match.
        """
        wanted = sorted_instants(instants)
        t, _, _ = self.as_arrays()
        return self.mask_rows(instants_member_mask(t, wanted))

    def restrict_objects(self, oids: Set[Hashable]) -> "MOFT":
        """Keep the samples of the given objects."""
        wanted = set(oids)
        index = self.segment_index()
        keep = np.fromiter(
            (oid in wanted for oid in index.oids.tolist()),
            dtype=bool, count=index.oids.shape[0],
        )
        return self.mask_rows(index.per_row(keep))

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
        row_shard = index.per_row(shard_of)
        return [self.mask_rows(row_shard == shard) for shard in range(n)]

    def partition_by_time(self, n: int) -> List["MOFT"]:
        """Split into ``n`` shards of contiguous, disjoint instant ranges.

        The distinct instants are sorted and cut into ``n`` nearly equal
        runs; shard ``i`` keeps every sample whose instant falls in run
        ``i``.  The shards are disjoint and their union is the whole
        table.  Note that an object's trajectory may span several shards:
        segments between samples on opposite sides of a cut exist in
        neither shard, so interpolation-sensitive queries must partition
        by objects instead (see ``docs/API.md``).
        """
        if n < 1:
            raise TrajectoryError(f"shard count must be >= 1, got {n}")
        t, _, _ = self.as_arrays()
        instants = np.unique(t)
        groups = np.array_split(instants, n)
        shards: List[MOFT] = []
        for group in groups:
            if group.size == 0:
                shards.append(self.mask_rows(np.zeros(self._n, dtype=bool)))
                continue
            mask = (t >= group[0]) & (t <= group[-1])
            shards.append(self.mask_rows(mask))
        return shards

    @classmethod
    def concat(
        cls, shards: Sequence["MOFT"], name: str = "FM", validate: bool = True
    ) -> "MOFT":
        """Concatenate tables column-wise into one MOFT.

        The inverse of the partitioners up to row order: concatenating the
        shards of either partitioner yields a row-*set*-identical table.
        Pass ``validate=False`` only when the inputs are known disjoint in
        ``(oid, t)`` — e.g. shards of one valid table.
        """
        tables = [shard for shard in shards if len(shard)]
        if not tables:
            return cls(name)
        columns = [table.as_arrays() for table in tables]
        return cls.from_columns(
            np.concatenate([table.oid_column() for table in tables]),
            np.concatenate([t for t, _, _ in columns]),
            np.concatenate([x for _, x, _ in columns]),
            np.concatenate([y for _, _, y in columns]),
            name=name,
            validate=validate,
        )

    def time_range(self) -> Tuple[float, float]:
        """Return ``(min t, max t)`` over all samples."""
        if self._n == 0:
            raise TrajectoryError(f"MOFT {self.name!r} is empty")
        t, _, _ = self.as_arrays()
        return (float(t.min()), float(t.max()))

    def bbox(self) -> BoundingBox:
        """Spatial bounding box over all sampled positions."""
        if self._n == 0:
            raise TrajectoryError(f"MOFT {self.name!r} is empty")
        _, x, y = self.as_arrays()
        return BoundingBox(
            float(x.min()), float(y.min()), float(x.max()), float(y.max())
        )
