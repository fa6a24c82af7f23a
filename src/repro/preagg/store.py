"""The materialized pre-aggregation store: per-(geometry, granule) cells.

The paper's Definition 4 makes geometric aggregation *summable*: once a
measure is attached to finite geometry ids, ``Q = Σ_{g∈C} h'(g)``.  This
module materializes exactly that form for the moving-object workload: a
:class:`PreAggStore` summarizes a MOFT against a set of polygons and a
contiguous time-granule partition (:meth:`repro.temporal.timedim
.TimeDimension.granules`) into one columnar :class:`CellTable`, a row per
(polygon, granule, object) holding ``samples`` — the object's samples
inside the polygon in the granule — and ``dwell`` — its interpolated
time inside, from intra-granule trajectory segments.  *A row is a
passer*: the object's granule-restricted trajectory intersects the
polygon (trajectory semantics).  *A row with* ``samples > 0`` *is
present* (sample semantics).  Distinct-count is not summable, so the
table keeps the exact (cell, object) rows and never adds counters; the
per-cell ``samples`` / ``dwell`` sums are made once per fold, beside a
CSR index of the rows by cell.

Cells alone cannot answer window queries exactly: a segment between
samples in *adjacent* granules exists in neither granule-restricted
scan.  The table therefore also keeps **spanning records** —
``(polygon, oid, granule_a, granule_b, dwell)`` for every trajectory
segment whose endpoints sit in different granules and which intersects
the polygon.  A window covering granules ``i..j`` then answers exactly as

    ∪ passers[g∈i..j]  ∪  { oid of spanning records with i ≤ a, b ≤ j }

because (all sample instants being registered) samples consecutive in the
window restriction are consecutive in the full history.  A read gathers
the rows of its polygons' cells in one pass (the cells of a granule run
are adjacent) and slices their spanning records off an index by
(polygon, first granule), derived once per table; ids are made distinct
by a boolean scatter over the intern table — no sort: ``np.unique``
over the same ids takes longer than the whole read.  Misaligned
windows decompose into the maximal covered granule run plus *slivers*
at the edges; the hybrid answer adds a scan of only the window segments
with an endpoint in a sliver, which is exact because those are the
window segments the store has not accounted for.

The lifecycle (snapshot, ``update()``, ``clone()``, ``merge()``, registry
matching) is :class:`repro.cellstore.GranuleStore`'s; this module keeps
the table, folds and reads.  Attribution is written once, as two batched
passes — samples (vectorized containment) and segments (the clip
kernel) — whose hits are staged as array chunks and summed per (cell,
object) whenever a segment batch of them is waiting (:class:`_Fold`).
The build runs the whole segment table through them; an in-time-order
append stages its delta beside the rows the table has (purely additive:
no prior membership ever becomes wrong).  An out-of-order append is
handled per object, and *retract = drop*: one mask takes the object's
rows and spanning records out and its time-sorted history goes through
the same passes again — other objects keep the pure delta path, so a few
late samples do not force a rebuild.  Every fold ends in a new table: a
clone shares the one it has.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import (
    Dict, Hashable, Iterable, List, NamedTuple, Optional, Tuple,
)

import numpy as np

from repro.cellstore import GranuleStore, RollupRows, frozen
from repro.errors import PreAggError
from repro.geometry.kernels import PolygonPass, polygon_sums
from repro.geometry.polygon import Polygon
from repro.mo import moft as moft_module
from repro.mo.moft import MOFT, ObjectSet, SegmentBatch
from repro.obs import PipelineStats
from repro.query.vectorized import points_inside
from repro.temporal.timedim import TimeDimension

#: uint32 oid-code dtype of every stored id column.
OID_DTYPE = np.uint32


@dataclass(frozen=True)
class PreAggStoreStats:
    """Planner-facing summary of one store (see :meth:`PreAggStore.stats`).

    The cost-based planner (:mod:`repro.query.planner`) prices the
    pre-aggregation strategy from these figures without touching cells:
    ``granules`` bounds the lookup work, ``built_rows`` is the table
    coverage, and ``stale`` disqualifies the store outright.
    """

    name: str
    granule_level: str
    granules: int
    geometries: int
    objects: int
    built_rows: int
    stale: bool


@dataclass(frozen=True)
class PreAggCell:
    """One decoded (geometry, granule) cell — for inspection and roll-ups."""

    samples: int
    dwell: float
    distinct_objects: frozenset
    passing_objects: frozenset


class CellTable(NamedTuple):
    """The cells as columns: one row per (polygon, granule, object) with a
    sample inside or an intra-granule segment through, sorted by
    ``(cell, oid)``.

    ``cell`` is ``gid index * granules + granule`` (gid indexes the ids
    in sorted-``repr`` order), ``offsets`` its CSR index — cell ``c``
    holds rows ``offsets[c]:offsets[c + 1]`` — and ``cell_samples`` /
    ``cell_dwell`` the two measures summed per cell, as dense ``(gid
    index, granule)`` grids.  ``oids`` interns every object folded, in
    the order first met, and ``last[code]`` is the ``(t, x, y)`` of its
    last sample: where the connecting segment of the next delta starts.
    ``span_*`` are the spanning records, in fold order.
    """

    oids: Tuple[Hashable, ...]
    last: np.ndarray
    cell: np.ndarray
    oid: np.ndarray
    samples: np.ndarray
    dwell: np.ndarray
    offsets: np.ndarray
    cell_samples: np.ndarray
    cell_dwell: np.ndarray
    span_gid: np.ndarray
    span_oid: np.ndarray
    span_a: np.ndarray
    span_b: np.ndarray
    span_dwell: np.ndarray


#: Where a table keeps its row and its spanning-record columns, and
#: those columns without a row: (cell, oid, samples, dwell) and — the
#: same dtypes — (gid, oid, a) + (b, dwell).
_ROWS, _SPANS = slice(2, 6), slice(9, 14)
_NO_ROWS = (
    np.empty(0, dtype=np.int64), np.empty(0, dtype=OID_DTYPE),
    np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64),
)
_NO_SPANS = _NO_ROWS[:3] + _NO_ROWS[2:]


def _slices(column: np.ndarray, lo: np.ndarray, hi: np.ndarray, dtype=None):
    """``column[lo[i]:hi[i]]`` of every ``i``, concatenated (as ``dtype``)
    in one copy: the rows of several CSR slices."""
    parts = [column[a:b] for a, b in zip(lo.tolist(), hi.tolist())]
    if not parts:
        return np.empty(0, dtype=dtype or column.dtype)
    return np.concatenate(parts, dtype=dtype)


class _Fold:
    """A table being made: rows and spanning records as array chunks.

    ``rows`` opens with rows already summed per (cell, object) and
    sorted by that — a table's, or none — and every hit after that is
    staged as a ``(cell, oid, samples, dwell)`` chunk.  :meth:`summed`
    sorts only the staged hits, adds each (cell, object)'s up with
    ``np.bincount`` after the row it already has (``bincount`` adds in
    input order: the row first, then the hits in the (object, time)
    order the passes stage them in) and merges the result into the
    sorted rows.  A row's dwell is therefore the same left-to-right sum
    wherever the sums fall, and they fall whenever more than one
    segment batch of hits is staged: what a fold holds beside its table
    is bounded by the batch, not by the rows it reads.
    """

    def __init__(self, oids, last, rows=_NO_ROWS, spans=_NO_SPANS) -> None:
        self.oids, self.last = oids, last
        self.rows, self.spans, self.staged = [rows], [spans], 0

    def stage(self, cell, oid, samples, dwell) -> None:
        """One chunk of hits; ``samples`` / ``dwell`` per hit, or one for all."""
        samples, dwell = np.broadcast_arrays(samples, dwell, cell)[:2]
        self.rows.append((cell, oid, samples, dwell))
        self.staged += cell.shape[0]
        if self.staged > moft_module.SEGMENT_BATCH_ROWS:
            self.rows, self.staged = [self.summed()], 0

    def summed(self):
        """The staged rows, one per (cell, object), sorted by that."""
        if len(self.rows) == 1:
            return self.rows[0]
        (cell, oid, samples, dwell), *staged = self.rows
        width = max(len(self.oids), 1)
        have = cell * width + oid
        keys, row = np.unique(
            np.concatenate([c * width + o for c, o, _, _ in staged]),
            return_inverse=True,
        )
        at = np.searchsorted(have, keys)
        found = at < have.size
        found[found] = have[at[found]] == keys[found]
        # Each key's row in the merged table: after the rows below it
        # and the new keys below it.
        fresh = ~found
        place = at + np.cumsum(fresh) - fresh
        added = np.zeros(have.size + np.count_nonzero(fresh), dtype=bool)
        added[place[fresh]] = True
        # A key's sums start from the row it has (or from nothing).
        group = np.concatenate((np.arange(keys.size), row))
        sums = []
        for part, column in ((2, samples), (3, dwell)):
            start = np.zeros(keys.size)
            start[found] = column[at[found]]
            weights = [start] + [chunk[part] for chunk in staged]
            sums.append(np.bincount(group, weights=np.concatenate(weights)))
        out = []
        for column, value in zip(
            (cell, oid, samples, dwell), (keys // width, keys % width, *sums)
        ):
            merged = np.empty(added.size, dtype=column.dtype)
            merged[~added] = column
            merged[place] = value
            out.append(merged)
        return tuple(out)

    def table(self, n_gids: int, n_granules: int) -> CellTable:
        cell, oid, samples, dwell = rows = self.summed()
        size, grid = n_gids * n_granules, (n_gids, n_granules)
        samples = np.bincount(cell, weights=samples, minlength=size)
        return frozen(CellTable(
            self.oids, self.last, *rows,
            np.searchsorted(cell, np.arange(size + 1)),
            samples.astype(np.int64).reshape(grid),
            np.bincount(cell, weights=dwell, minlength=size).reshape(grid),
            *map(np.concatenate, zip(*self.spans)),
        ))


class PreAggStore(GranuleStore):
    """Materialized per-(geometry-id, time-granule) rollup of one MOFT.

    Parameters
    ----------
    moft:
        The base fact table.  Every sample instant must be a registered
        ``timeId`` member (otherwise :class:`PreAggError` — the store
        could not place the sample in any granule).
    time:
        The Time dimension providing the granule partition.
    granule_level:
        The finest materialized level (e.g. ``"hour"`` or ``"day"``);
        must partition the registered instants into contiguous runs.
    geometries:
        ``geometry id -> Polygon`` — typically a layer's polygon
        partition.  Non-polygon geometries are rejected (cells need
        containment and segment clipping).
    layer, kind:
        Optional provenance tags; the planner matches stores to queries
        by ``(moft identity, layer, kind)``.
    obs:
        Observer receiving ``preagg_build`` / ``preagg_update`` stage
        timings.
    polygons:
        The pass to fold through, over exactly ``geometries`` in id
        order: a layer's kept one (:meth:`repro.gis.layer.Layer
        .geometry_index`), as the streaming ingestor hands it.
        Default: the store's own (:attr:`_polygons`).
    """

    CELL_KEY = ("kind",)

    #: The table's spanning-record index (:meth:`_span_index`; None: not
    #: derived since the last fold).
    _span_order: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __init__(
        self,
        moft: MOFT,
        time: TimeDimension,
        granule_level: str,
        geometries: Dict[Hashable, Polygon],
        layer: Optional[str] = None,
        kind: Optional[str] = None,
        name: Optional[str] = None,
        obs: Optional[PipelineStats] = None,
        build: bool = True,
        polygons: Optional[PolygonPass] = None,
    ) -> None:
        if not geometries:
            raise PreAggError("a pre-aggregation store needs >= 1 polygon")
        for gid, geometry in geometries.items():
            if not isinstance(geometry, Polygon):
                raise PreAggError(
                    f"geometry {gid!r} is {type(geometry).__name__}, not a "
                    f"Polygon; the store needs containment and clipping"
                )
        super().__init__(
            moft, time, granule_level, geometries, layer, kind,
            name if name is not None else f"preagg_{moft.name}", obs,
        )
        if polygons is not None:
            self._polygons = polygons
        self._empty_cells()
        if build:
            self.refresh()

    # -- construction ---------------------------------------------------------

    def refresh(self) -> None:
        """Rebuild every cell from the current MOFT and Time dimension."""
        with self.obs.stage("preagg_build"):
            super().refresh()

    def _bind(self, fold: _Fold) -> None:
        self._table = fold.table(len(self.gids), len(self.partition))
        self._span_order = None

    def _empty_cells(self) -> None:
        self._bind(_Fold((), np.empty((0, 3))))

    def _build_cells(self) -> None:
        """Fold every row and every segment of the table into the cells."""
        moft = self.moft
        if not len(moft):
            return
        if not len(self.partition):
            raise PreAggError(
                f"no {self.granule_level!r} granules exist but the "
                f"MOFT has {len(moft)} samples"
            )
        t, x, y = moft.as_arrays()
        index = moft.segment_index()
        granule = self._granule_codes_checked(t)
        final = index.perm[index.offsets[1:] - 1]
        # An object's code is its place in the (object, time) order.
        fold = _Fold(
            tuple(index.oids.tolist()),
            np.column_stack((t[final], x[final], y[final])),
        )
        self._fold_samples(fold, moft.object_codes(), granule, x, y)
        for batch in moft.segments():
            self._fold_segments(fold, batch.obj, batch)
        self._bind(fold)

    def _granule_codes_checked(self, ts: np.ndarray) -> np.ndarray:
        codes = self.partition.codes_for(ts)
        bad = np.flatnonzero(codes < 0)
        if bad.size:
            raise PreAggError(
                f"sample instant {float(ts[bad[0]])} is not a registered "
                f"timeId member; the store cannot place it in any "
                f"{self.granule_level!r} granule"
            )
        return codes

    @cached_property
    def _polygons(self) -> PolygonPass:
        """The pass over :attr:`gids` (a position is a gid code): the
        one handed in, else built at the first fold; shared by the
        clones made after it, never pickled (:meth:`__getstate__`).  Its
        decided-cell grid is built at the first pass over
        ``_LABEL_MIN_POINTS`` samples or segments
        (:meth:`~repro.geometry.kernels.PolygonPass.labels_for`)."""
        return PolygonPass.of({gid: self.geometries[gid] for gid in self.gids})

    def _span_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """The table's spanning records by (gid index, first granule):
        a permutation of the span columns, stable (fold order within a
        key), and its CSR offsets — the records of key ``k = gid index *
        granules + span_a`` are ``perm[offsets[k]:offsets[k + 1]]``, as
        the cell rows are indexed by cell.  Derived on the first read of
        a run longer than one granule, dropped by every fold
        (:meth:`_bind`), shared by the clones that share the table,
        never pickled."""
        if self._span_order is None:
            table, n = self._table, len(self.partition)
            key = table.span_gid * n + table.span_a
            perm = np.argsort(key, kind="stable")
            self._span_order = perm, np.searchsorted(
                key[perm], np.arange(len(self.gids) * n + 1)
            )
        return self._span_order

    def __getstate__(self) -> dict:
        derived = ("_polygons", "_span_order")
        return {k: v for k, v in vars(self).items() if k not in derived}

    def _fold_samples(
        self,
        fold: _Fold,
        code: np.ndarray,
        granule: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
    ) -> None:
        """The sample pass: one broad phase and one containment call on
        the (polygon, sample) pairs of each segment batch's worth of
        samples (the staged counts are integers: no order to keep).  A
        sample inside proves the granule-restricted trajectory hits the
        polygon (the adjacent intra-granule segment, or the lone-point
        probe), so the row it makes is a passer's too."""
        for pos, rows in points_inside(self._polygons, x, y, obs=self.obs):
            if rows.size:
                cell = pos * len(self.partition) + granule[rows]
                fold.stage(cell, code[rows], 1, 0.0)

    def _fold_segments(
        self, fold: _Fold, code: np.ndarray, batch: SegmentBatch
    ) -> None:
        """The segment pass: the pass's dwell pairs
        (:meth:`~repro.geometry.kernels.PolygonPass.dwell_pairs`: a
        segment in cells decided inside a polygon, then one broad phase
        and one clip-kernel call on the rest).

        ``batch`` holds trajectory segments in (object, time) order and
        ``code`` their object codes.  The pairs, and so the hits, come
        polygon by polygon in ascending batch order — the order a
        segment-by-segment walk would fold them in — so the float dwell
        sums and the span-record sequence do not depend on the batching.
        """
        pos, at, dwell, hits = self._polygons.dwell_pairs(batch, obs=self.obs)
        if not pos.size:
            return
        pos, at, dwell = pos[hits], at[hits], dwell[hits]
        a = self.partition.codes_for(batch.t0[at])
        b = self.partition.codes_for(batch.t1[at])
        inner = a == b
        cell = pos[inner] * len(self.partition) + a[inner]
        fold.stage(cell, code[at[inner]], 0, dwell[inner])
        pos, at, a, b, dwell = (v[~inner] for v in (pos, at, a, b, dwell))
        fold.spans.append((pos, code[at].astype(OID_DTYPE), a, b, dwell))

    # -- planner statistics ----------------------------------------------------

    def stats(self) -> PreAggStoreStats:
        """A cheap planner-facing summary (no cell access)."""
        return PreAggStoreStats(
            name=self.name,
            granule_level=self.granule_level,
            granules=len(self.partition),
            geometries=len(self.gids),
            objects=len(self._table.oids),
            built_rows=self._built_rows,
            stale=self.is_stale(),
        )

    # -- incremental maintenance ----------------------------------------------

    def _fold_rows(self, start: int) -> None:
        """The ``"delta"`` of :meth:`update`: in-time-order appends fold
        additively, objects appended out of time order are dropped and
        refolded whole (:meth:`_refold_object`)."""
        with self.obs.stage("preagg_update"):
            if start < len(self.moft):
                fold, late = self._fold_delta(start)
                for code in late:
                    self._refold_object(fold, fold.oids[code], code)
                self._bind(fold)

    def _codes_align(self) -> bool:
        """Whether the table's object order extends this store's: the
        objects the cells hold are the first of the table's
        :meth:`~repro.mo.moft.MOFT.segment_index`, in that order, so a
        fold reads the appended rows' codes off the table."""
        held = self._table.oids
        oids = self.moft.segment_index().oids
        return tuple(oids[:len(held)].tolist()) == held

    def _fold_delta(self, start: int) -> Tuple[_Fold, List[int]]:
        """Fold rows ``start:`` of objects appended in time order.

        Samples and segments (each object's connecting segment from its
        last folded sample, then its in-delta segments) are staged
        beside the table's rows through the batched passes of the build.
        The table's :meth:`~repro.mo.moft.MOFT.object_codes` are the
        store's (:meth:`_codes_align`): an object the delta brings is
        the next one of the table's order.  Returns the fold and the
        codes of the objects whose append was *not* in time order —
        their rows and spanning records dropped from it, nothing of them
        staged — for the caller to refold.
        """
        table, moft = self._table, self.moft
        t, x, y = (column[start:] for column in moft.as_arrays())
        granule = self._granule_codes_checked(t)
        code = moft.object_codes()[start:]
        held = len(table.oids)
        oids = table.oids + tuple(moft.segment_index().oids[held:].tolist())
        # (NaN: an object met in this delta has no last sample yet.)
        last = np.full((len(oids), 3), np.nan)
        last[:held] = table.last
        # Delta rows object by object, each object's ascending in time.
        order = np.lexsort((t, code))
        t, x, y, granule, code = (v[order] for v in (t, x, y, granule, code))
        head = np.flatnonzero(np.r_[True, code[1:] != code[:-1]])
        # Every delta row's predecessor: the row before it, or for an
        # object's first delta row its last folded sample.
        prev = np.vstack(((np.nan,) * 3, np.column_stack((t, x, y))[:-1]))
        prev[head] = last[code[head]]
        prev_t, prev_x, prev_y = prev.T
        # Out-of-order append: the connecting segments already folded
        # in would change.  Those objects are left for the caller to
        # refold whole; every other takes the batched delta.
        late = np.zeros(len(oids), dtype=bool)
        late[code[head[t[head] <= prev_t[head]]]] = True
        fold = _Fold(
            oids, last,
            tuple(column[~late[table.oid]] for column in table[_ROWS]),
            tuple(column[~late[table.span_oid]] for column in table[_SPANS]),
        )
        keep = ~late[code]
        self._fold_samples(fold, code[keep], granule[keep], x[keep], y[keep])
        joined = np.flatnonzero(keep & ~np.isnan(prev_t))
        segments = SegmentBatch(
            prev_t[joined], t[joined],
            prev_x[joined], prev_y[joined], x[joined], y[joined],
        )
        self._fold_segments(fold, code[joined], segments)
        tail = np.flatnonzero(np.r_[code[1:] != code[:-1], True] & keep)
        last[code[tail]] = np.column_stack((t[tail], x[tail], y[tail]))
        return fold, np.flatnonzero(late).tolist()

    def _refold_object(self, fold: _Fold, oid: Hashable, code: int) -> None:
        """Fold one object's full history into a fold that holds none of it.

        Used when an append delivered the object a sample at or before
        its last folded instant: connecting segments already attributed
        to cells would change, so :meth:`_fold_delta` dropped all the
        object had and its time-sorted history goes through the two
        passes again: what :meth:`refresh` would produce for this
        object, without touching any other.  (``code`` is ``oid``'s in
        the table as in the fold.)
        """
        _, perm, offsets = self.moft.segment_index()
        rows = perm[offsets[code]:offsets[code + 1]]
        t, x, y = (column[rows] for column in self.moft.as_arrays())
        codes = np.full(rows.shape[0], code)
        self._fold_samples(fold, codes, self._granule_codes_checked(t), x, y)
        history = SegmentBatch(t[:-1], t[1:], x[:-1], y[:-1], x[1:], y[1:])
        self._fold_segments(fold, codes[1:], history)
        fold.last[code] = t[-1], x[-1], y[-1]

    # -- granule-run queries --------------------------------------------------

    def _gid_codes(self, ids: Iterable[Hashable]) -> np.ndarray:
        """Distinct positions of ``ids`` in :attr:`gids` (one a cell block
        of the table), in first-seen order: ``C`` is a set (Definition
        4), so a repeated id counts once.  An id outside them is a typed
        error."""
        try:
            codes = dict.fromkeys(self._gid_code[gid] for gid in ids)
            return np.array(list(codes), dtype=int)
        except KeyError as missing:
            raise PreAggError(
                f"geometry {missing.args[0]!r} is not materialized in "
                f"store {self.name!r}"
            ) from None

    def _run_spans(
        self, polygons: np.ndarray, first: int, last: int
    ) -> np.ndarray:
        """Positions in the span columns of the spanning records of
        ``polygons`` (gid positions) fully inside the granule run
        ``first..last``, in no particular order: each polygon's records
        whose first granule lies in the run, sliced off
        :attr:`_span_index`, kept when their last granule does too.  A
        run of one granule holds none: every record spans two."""
        if first == last:
            return np.empty(0, dtype=np.intp)
        perm, offsets = self._span_index()
        keys = polygons * len(self.partition)
        # (A record inside the run starts before its last granule.)
        at = _slices(perm, offsets[keys + first], offsets[keys + last])
        return at[self._table.span_b[at] <= last]

    def _run_codes(
        self, ids: Iterable[Hashable], first: int, last: int, which: str
    ) -> np.ndarray:
        """Sorted distinct oid codes of the ``"passers"`` / ``"present"``
        objects of ``ids`` over the granule run: the table's codes (the
        cells hold the first of its objects, in its order)."""
        return self._polygon_run_codes(self._gid_codes(ids), first, last, which)

    def _polygon_run_codes(
        self, polygons: np.ndarray, first: int, last: int, which: str
    ) -> np.ndarray:
        """:meth:`_run_codes` of ``polygons`` (:meth:`_gid_codes`)."""
        table, n = self._table, len(self.partition)
        passers = which == "passers"
        if not (0 <= first <= last < n):
            raise PreAggError(
                f"granule run {first}..{last} out of range 0..{n - 1}"
            )
        seen = np.zeros(len(table.oids), dtype=bool)
        cells = polygons * n
        lo, hi = table.offsets[cells + first], table.offsets[cells + last + 1]
        # (One cast of the oid column, in the one copy of its rows.)
        oid = _slices(table.oid, lo, hi, np.intp)
        if not passers:
            oid = oid[_slices(table.samples, lo, hi) > 0]
        seen[oid] = True
        if passers:
            seen[table.span_oid[self._run_spans(polygons, first, last)]] = True
        return np.flatnonzero(seen).astype(OID_DTYPE)

    def objects_through(
        self, ids: Iterable[Hashable], first: int, last: int
    ) -> ObjectSet:
        """Objects whose run-restricted trajectory hits any of ``ids``,
        as codes into the table.

        Exactly equals the serial trajectory scan over the MOFT
        restricted to the instants of granules ``first..last``.
        """
        codes = self._run_codes(ids, first, last, "passers")
        return self.moft.object_set(codes)

    def distinct_objects(
        self, ids: Iterable[Hashable], first: int, last: int
    ) -> ObjectSet:
        """Objects with at least one sample inside (sample semantics),
        as codes into the table."""
        codes = self._run_codes(ids, first, last, "present")
        return self.moft.object_set(codes)

    def sample_count(
        self, ids: Iterable[Hashable], first: int, last: int
    ) -> int:
        """Total samples inside the polygons over the granule run."""
        polygons = self._gid_codes(ids)
        return int(self._table.cell_samples[polygons, first:last + 1].sum())

    def dwell_time(
        self, ids: Iterable[Hashable], first: int, last: int
    ) -> float:
        """Interpolated time inside the polygons over the granule run.

        Sums intra-granule cell dwell plus spanning-segment dwell for
        segments fully inside the run.  Overlapping polygons double-count
        (per-polygon dwell is summed), matching the serial per-polygon
        reference.
        """
        return self._run_dwell(self._gid_codes(ids), first, last)

    def _run_dwell(self, polygons: np.ndarray, first: int, last: int) -> float:
        """:meth:`dwell_time` of ``polygons`` (:meth:`_gid_codes`)."""
        table = self._table
        # (In fold order: the sum a mask over the span columns takes.)
        spans = np.sort(self._run_spans(polygons, first, last))
        return float(
            table.cell_dwell[polygons, first:last + 1].sum()
        ) + float(table.span_dwell[spans].sum())

    # -- window decomposition -------------------------------------------------

    def covered_run(
        self, start: float, end: float
    ) -> Optional[Tuple[int, int]]:
        """Maximal granule run inside ``[start, end]`` (None when empty)."""
        return self.partition.covered_run(float(start), float(end))

    def is_aligned(self, start: float, end: float) -> bool:
        """True when the window lands exactly on granule boundaries."""
        return self.partition.aligned_run(float(start), float(end)) is not None

    def _span(self, run: Optional[Tuple[int, int]]) -> Tuple[float, float]:
        """First and last instant of a granule run (None: an empty span)."""
        return (np.inf, -np.inf) if run is None else self.partition.span(*run)

    def _sliver_scan_mask(
        self, start: float, end: float, run: Optional[Tuple[int, int]]
    ) -> Optional[np.ndarray]:
        """Row mask of the residual scan for a misaligned window: the
        rows of the window segments the store has not accounted for
        (None when the window is fully covered by the run).

        The store accounts for every window segment with both endpoints
        in the covered run, so the scan needs only the segments with an
        endpoint in a *sliver* — the part of ``[start, end]`` outside
        the run.  An object sampled in one sliver keeps that sliver's
        rows plus its one window row next to them on the run side (their
        segment into the run).  An object sampled in both keeps its whole
        window history: a mask of its two blocks alone would join them,
        across the run, into a segment its trajectory does not have.
        Scanning these rows and unioning with :meth:`objects_through`
        over the run reproduces the serial window scan exactly.  A
        prepared leaf computes it once (:attr:`~repro.query.evaluator
        .Leaf.sliver_mask`), which prices and runs both the hybrid and
        the dwell read from it; :meth:`window_dwell` once per call.

        Every row's instant is registered (:meth:`_granule_codes_checked`
        refuses any other at build and at every update), so a sliver
        without a registered instant has no row: that is decided on the
        partition, and the ``t`` column is read only when it has one.
        """
        lo, hi = self._span(run)
        instants = self.partition.instants
        inside = instants[
            np.searchsorted(instants, float(start)):
            np.searchsorted(instants, float(end), side="right")
        ]
        if not ((inside < lo) | (inside > hi)).any():
            return None
        t, _, _ = self.moft.as_arrays()
        window = (t >= float(start)) & (t <= float(end))
        if not (window & ((t < lo) | (t > hi))).any():
            return None
        # In (object, time) order an object's window rows are one block:
        # its left sliver rows, its run rows, its right sliver rows.
        index = self.moft.segment_index()
        perm, heads = index.perm, index.offsets[:-1]
        w = window[perm]
        left, right = w & (t[perm] < lo), w & (t[perm] > hi)
        both = np.logical_or.reduceat(left, heads) & np.logical_or.reduceat(
            right, heads
        )
        owner = self.moft.object_codes()[perm]
        keep = left | right | (w & both[owner])
        # The run-side neighbour of a one-sided block: the window row
        # right after a left block, right before a right block.
        same = owner[1:] == owner[:-1]
        keep[1:] |= left[:-1] & w[1:] & ~left[1:] & same
        keep[:-1] |= right[1:] & w[:-1] & ~right[:-1] & same
        mask = np.zeros(t.shape[0], dtype=bool)
        mask[perm[keep]] = True
        return mask

    def window_dwell(
        self, ids: Iterable[Hashable], start: float, end: float
    ) -> float:
        """Exact dwell time for an arbitrary window within coverage.

        Store cells answer the covered granule run.  Segments with an
        endpoint in a sliver (there are only ever O(sliver rows) of
        them) get the scan leaf of :func:`repro.query.aggregate
        .total_dwell_time`: the rows of :meth:`_sliver_scan_mask` through
        the pass's dwell pairs a batch — of the segments they join, those
        the run does not hold — summed per polygon of ``ids`` in (object,
        time) order.
        """
        polygons = self._gid_codes(ids)  # the typed error, covered or not
        run = self.covered_run(start, end)
        return self._window_dwell(
            polygons, run, self._sliver_scan_mask(start, end, run)
        )

    def _window_dwell(
        self,
        polygons: np.ndarray,
        run: Optional[Tuple[int, int]],
        mask: Optional[np.ndarray],
    ) -> float:
        """:meth:`window_dwell` of ``polygons`` (:meth:`_gid_codes`) over
        the granule ``run`` and the sliver rows ``mask`` of a window
        (:meth:`_sliver_scan_mask`), which a prepared leaf holds."""
        total = 0.0 if run is None else self._run_dwell(polygons, *run)
        if mask is None:
            return total
        lo, hi = self._span(run)
        wanted = np.zeros(len(self.gids), dtype=bool)
        wanted[polygons] = True
        for batch in self.moft.segments(rows=mask):
            # Both endpoints covered: already in cells.
            uncovered = np.flatnonzero((batch.t0 < lo) | (batch.t1 > hi))
            pos, _, dwell, _ = self._polygons.dwell_pairs(
                batch, uncovered, wanted, obs=self.obs
            )
            for part in polygon_sums(pos, dwell, polygons):
                total += part
        return total

    # -- decoded cells and lattice rollup -------------------------------------

    def cell(self, gid: Hashable, member: Hashable) -> PreAggCell:
        """Decode one finest-granule cell: the reads over a run of one
        granule (which no spanning record lies inside)."""
        granule = self.partition.code_of(member)
        run = [gid], granule, granule
        return PreAggCell(
            samples=self.sample_count(*run),
            dwell=self.dwell_time(*run),
            distinct_objects=frozenset(self.distinct_objects(*run)),
            passing_objects=frozenset(self.objects_through(*run)),
        )

    def _rollup_rows(self, time_map: np.ndarray) -> Tuple[RollupRows, ...]:
        """The rows, then the spanning records whose two granules roll up
        into one parent, placed at the first: such a segment lies inside
        the parent granule, so its object passes and its dwell counts
        there — what makes a roll-up exact rather than a lossy counter
        sum.  A row is a passer, a row with samples is present.  (With
        no time level no record qualifies: the cube's cells are rows.)"""
        table = self._table
        gid, granule = np.divmod(table.cell, len(self.partition))
        inner = time_map[table.span_a] == time_map[table.span_b]
        rows = np.ones(table.oid.size, dtype=bool)
        spans = np.ones(np.count_nonzero(inner), dtype=bool)
        return (
            RollupRows(
                gid, granule, table.oid,
                {"samples": table.samples, "dwell": table.dwell},
                {"distinct_objects": table.samples > 0, "passing_objects": rows},
            ),
            RollupRows(
                table.span_gid[inner], table.span_a[inner], table.span_oid[inner],
                {"samples": np.zeros(spans.size, dtype=np.int64),
                 "dwell": table.span_dwell[inner]},
                {"distinct_objects": ~spans, "passing_objects": spans},
            ),
        )

    def rollup_cells(
        self, parent_level: str
    ) -> Dict[Tuple[Hashable, Hashable], PreAggCell]:
        """:meth:`rollup` to ``parent_level`` as decoded cells keyed
        ``(gid, parent member)``: the dwell of a cell is its rows' plus
        its intra-parent spanning records'.  Raises
        :class:`~repro.errors.RollupError` when some child granule
        straddles two parents."""
        cells = self.rollup(parent_level)
        return {
            label: PreAggCell(
                samples, dwell, frozenset(present), frozenset(passing)
            )
            for label, samples, dwell, present, passing in zip(
                cells.labels(),
                cells.measures["samples"].tolist(),
                cells.measures["dwell"].tolist(),
                cells.objects("distinct_objects"),
                cells.objects("passing_objects"),
            )
        }

    # -- shard merge ----------------------------------------------------------

    def _absorb(self, store: "PreAggStore") -> None:
        """The shard's rows and spanning records join this table, its
        objects coded by their place in the merged table's
        :meth:`~repro.mo.moft.MOFT.segment_index` — the order a build
        over that table gives them, which later folds read codes in
        (:meth:`merge` has checked that the two hold no object in
        common)."""
        mine, theirs = self._table, store._table
        codes = [self.moft.object_code(oid) for oid in theirs.oids]
        if None in codes:
            raise PreAggError(
                f"shard object {theirs.oids[codes.index(None)]!r} is not "
                f"in the merged table {self.moft.name!r}"
            )
        recode = np.array(codes, dtype=OID_DTYPE)
        held = max(len(mine.oids), int(np.max(recode + 1, initial=0)))
        # (NaN: an object no shard has brought yet.)
        last = np.full((held, 3), np.nan)
        last[:len(mine.oids)] = mine.last
        last[recode] = theirs.last
        oids = self.moft.segment_index().oids[:held]
        fold = _Fold(tuple(oids.tolist()), last, mine[_ROWS], mine[_SPANS])
        cell, oid, samples, dwell = theirs[_ROWS]
        fold.stage(cell, recode[oid], samples, dwell)
        gid, oid, a, b, dwell = theirs[_SPANS]
        fold.spans.append((gid, recode[oid], a, b, dwell))
        self._bind(fold)

    def __repr__(self) -> str:
        return (
            f"PreAggStore({self.name!r}, level={self.granule_level!r}, "
            f"granules={len(self.partition)}, geometries={len(self.gids)}, "
            f"objects={len(self._table.oids)}, "
            f"stale={self.is_stale()})"
        )


__all__ = [
    "OID_DTYPE",
    "PreAggCell",
    "PreAggStore",
    "PreAggStoreStats",
]
