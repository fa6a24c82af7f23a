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
window restriction are consecutive in the full history.  A read takes
one slice of the rows per polygon (the cells of a granule run are
adjacent) and one mask over the spanning records; ids are made distinct
by a boolean scatter over the intern table — no sort: ``np.unique``
over the same ids takes longer than the whole read.  Misaligned
windows decompose into the maximal covered granule run plus *slivers*
at the edges; the hybrid answer adds a scan over only the objects
touching a sliver (their full window-restricted history), which is exact
because a window segment not accounted by the store has an endpoint in a
sliver.

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
from typing import (
    Dict, Hashable, Iterable, List, NamedTuple, Optional, Set, Tuple,
)

import numpy as np

from repro.cellstore import GranuleStore, frozen
from repro.errors import PreAggError
from repro.geometry.kernels import segments_dwell
from repro.geometry.polygon import Polygon
from repro.mo import moft as moft_module
from repro.mo.moft import MOFT, SegmentBatch
from repro.obs import PipelineStats
from repro.query.vectorized import polygon_contains_batch
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
    """One decoded (geometry, granule) cell — for inspection and cubes."""

    samples: int
    dwell: float
    distinct_objects: frozenset
    passing_objects: frozenset

    @property
    def distinct_count(self) -> int:
        """Number of distinct objects sampled inside (exact, from the set)."""
        return len(self.distinct_objects)


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


class _Fold:
    """A table being made: rows and spanning records as array chunks.

    ``rows`` opens with rows already summed per (cell, object) — a
    table's, or none — and every hit after that is staged as a
    ``(cell, oid, samples, dwell)`` chunk.  :meth:`summed` adds them up
    with ``np.bincount``, which adds in input order: the summed rows
    first, then the hits in the (object, time) order the passes stage
    them in.  A row's dwell is therefore the same left-to-right sum
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
        cell, oid, samples, dwell = map(np.concatenate, zip(*self.rows))
        width = max(len(self.oids), 1)
        keys, row = np.unique(cell * width + oid, return_inverse=True)
        return (
            keys // width, (keys % width).astype(OID_DTYPE),
            np.bincount(row, weights=samples).astype(np.int64),
            np.bincount(row, weights=dwell),
        )

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
    """

    CELL_KEY = ("kind",)

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
        self._fold_samples(
            fold, index.per_row(np.arange(len(fold.oids))), granule, x, y
        )
        for batch in moft.segments():
            self._fold_segments(fold, batch.obj, batch)
        self._bind(fold)

    def decode(self, codes: np.ndarray) -> Set[Hashable]:
        """Map an oid-code array back to object identifiers."""
        oids = self._table.oids
        return {oids[c] for c in codes.tolist()}

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

    def _fold_samples(
        self,
        fold: _Fold,
        code: np.ndarray,
        granule: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
    ) -> None:
        """The sample pass: vectorized containment per polygon.  A
        sample inside proves the granule-restricted trajectory hits the
        polygon (the adjacent intra-granule segment, or the lone-point
        probe), so the row it makes is a passer's too."""
        for g, gid in enumerate(self.gids):
            polygon = self.geometries[gid]
            box = polygon.bbox
            rows = np.flatnonzero(
                (x >= box.min_x)
                & (x <= box.max_x)
                & (y >= box.min_y)
                & (y <= box.max_y)
            )
            if rows.size:
                rows = rows[polygon_contains_batch(polygon, x[rows], y[rows])]
            if rows.size:
                cell = g * len(self.partition) + granule[rows]
                fold.stage(cell, code[rows], 1, 0.0)

    def _fold_segments(
        self, fold: _Fold, code: np.ndarray, batch: SegmentBatch
    ) -> None:
        """The segment pass: one clip-kernel call per polygon.

        ``batch`` holds trajectory segments in (object, time) order and
        ``code`` their object codes.  Per polygon the hits are staged in
        ascending batch order — the order a segment-by-segment walk
        would fold them in — so the float dwell sums and the span-record
        sequence do not depend on the batching.
        """
        dt = batch.t1 - batch.t0
        for g, gid in enumerate(self.gids):
            polygon = self.geometries[gid]
            near = batch.near(polygon.bbox)
            if not near.size:
                continue
            dwell, hits = segments_dwell(
                polygon, *batch.ends(near), dt[near], obs=self.obs
            )
            found = np.flatnonzero(hits)
            at, dwell = near[found], dwell[found]
            a = self.partition.codes_for(batch.t0[at])
            b = self.partition.codes_for(batch.t1[at])
            inner = a == b
            cell = g * len(self.partition) + a[inner]
            fold.stage(cell, code[at[inner]], 0, dwell[inner])
            at, a, b, dwell = (v[~inner] for v in (at, a, b, dwell))
            fold.spans.append(
                (np.full(at.size, g), code[at].astype(OID_DTYPE), a, b, dwell)
            )

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

    def _fold_delta(self, start: int) -> Tuple[_Fold, List[int]]:
        """Fold rows ``start:`` of objects appended in time order.

        Samples and segments (each object's connecting segment from its
        last folded sample, then its in-delta segments) are staged
        beside the table's rows through the batched passes of the build.
        Returns the fold and the codes of the objects whose append was
        *not* in time order — their rows and spanning records dropped
        from it, nothing of them staged — for the caller to refold.
        """
        table = self._table
        t, x, y = (column[start:] for column in self.moft.as_arrays())
        granule = self._granule_codes_checked(t)
        codes = {oid: code for code, oid in enumerate(table.oids)}
        code = np.array([
            codes.setdefault(oid, len(codes))
            for oid in self.moft.oid_column()[start:].tolist()
        ])
        # (NaN: an object met in this delta has no last sample yet.)
        last = np.full((len(codes), 3), np.nan)
        last[:len(table.oids)] = table.last
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
        late = np.zeros(len(codes), dtype=bool)
        late[code[head[t[head] <= prev_t[head]]]] = True
        fold = _Fold(
            tuple(codes), last,
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
        object, without touching any other.
        """
        _, rows = self.moft._object_order(oid)
        t, x, y = (column[rows] for column in self.moft.as_arrays())
        codes = np.full(rows.shape[0], code)
        self._fold_samples(fold, codes, self._granule_codes_checked(t), x, y)
        history = SegmentBatch(t[:-1], t[1:], x[:-1], y[:-1], x[1:], y[1:])
        self._fold_segments(fold, codes[1:], history)
        fold.last[code] = t[-1], x[-1], y[-1]

    # -- granule-run queries --------------------------------------------------

    def _gid_codes(self, ids: Iterable[Hashable]) -> np.ndarray:
        """Positions of ``ids`` in :attr:`gids` (one a cell block of the
        table); an id outside them is a typed error."""
        try:
            return np.array([self._gid_code[gid] for gid in ids], dtype=int)
        except KeyError as missing:
            raise PreAggError(
                f"geometry {missing.args[0]!r} is not materialized in "
                f"store {self.name!r}"
            ) from None

    def _run_spans(self, polygons: np.ndarray, first: int, last: int):
        """Spanning records of ``polygons`` (gid positions) fully inside
        the granule run ``first..last``: a mask over the span columns."""
        table = self._table
        wanted = np.zeros(len(self.gids), dtype=bool)
        wanted[polygons] = True
        return (
            wanted[table.span_gid]
            & (table.span_a >= first) & (table.span_b <= last)
        )

    def _run_codes(
        self, ids: Iterable[Hashable], first: int, last: int, which: str
    ) -> np.ndarray:
        """Sorted distinct oid codes of the ``"passers"`` / ``"present"``
        objects of ``ids`` over the granule run."""
        table, n = self._table, len(self.partition)
        passers = which == "passers"
        if not (0 <= first <= last < n):
            raise PreAggError(
                f"granule run {first}..{last} out of range 0..{n - 1}"
            )
        polygons = self._gid_codes(ids)
        seen = np.zeros(len(table.oids), dtype=bool)
        lo = table.offsets[polygons * n + first].tolist()
        hi = table.offsets[polygons * n + last + 1].tolist()
        for rows in map(slice, lo, hi):
            oid = table.oid[rows]
            seen[oid if passers else oid[table.samples[rows] > 0]] = True
        if passers:
            seen[table.span_oid[self._run_spans(polygons, first, last)]] = True
        return np.flatnonzero(seen).astype(OID_DTYPE)

    def objects_through(
        self, ids: Iterable[Hashable], first: int, last: int
    ) -> Set[Hashable]:
        """Objects whose run-restricted trajectory hits any of ``ids``.

        Exactly equals the serial trajectory scan over the MOFT
        restricted to the instants of granules ``first..last``.
        """
        return self.decode(self._run_codes(ids, first, last, "passers"))

    def distinct_objects(
        self, ids: Iterable[Hashable], first: int, last: int
    ) -> Set[Hashable]:
        """Objects with at least one sample inside (sample semantics)."""
        return self.decode(self._run_codes(ids, first, last, "present"))

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
        table, polygons = self._table, self._gid_codes(ids)
        spans = self._run_spans(polygons, first, last)
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
        """Row mask of the residual scan for a misaligned window.

        Selects the complete window-restricted history of every object
        having at least one sample in a sliver — the part of
        ``[start, end]`` outside the covered granule run — or None when
        the window is fully covered by the run.  Scanning these rows and
        unioning with :meth:`objects_through` over the run reproduces
        the serial window scan exactly: any window segment the store has
        not accounted for has an endpoint in a sliver.  Called by
        :func:`repro.query.evaluator.resolve_through` (at most once per
        query), which both prices and runs the hybrid from it.
        """
        lo, hi = self._span(run)
        t, _, _ = self.moft.as_arrays()
        window = (t >= float(start)) & (t <= float(end))
        sliver = window & ((t < lo) | (t > hi))
        if not sliver.any():
            return None
        index = self.moft.segment_index()
        # Per object: has it a sample in a sliver?  Spread over its rows.
        touched = np.logical_or.reduceat(sliver[index.perm], index.offsets[:-1])
        return index.per_row(touched) & window

    def window_dwell(
        self, ids: Iterable[Hashable], start: float, end: float
    ) -> float:
        """Exact dwell time for an arbitrary window within coverage.

        Store cells answer the covered granule run.  Segments with an
        endpoint in a sliver (there are only ever O(sliver objects) of
        them) get the scan leaf of :func:`repro.query.aggregate
        .total_dwell_time`: the sliver objects' window rows through the
        dwell kernel, in (object, time) order per polygon of ``ids``.
        """
        ids = list(ids)
        self._gid_codes(ids)  # the typed error, covered run or not
        run = self.covered_run(start, end)
        total = 0.0 if run is None else self.dwell_time(ids, *run)
        mask = self._sliver_scan_mask(start, end, run)
        if mask is None:
            return total
        lo, hi = self._span(run)
        for batch in self.moft.mask_rows(mask).segments():
            # Both endpoints covered: already in cells.
            uncovered = np.flatnonzero((batch.t0 < lo) | (batch.t1 > hi))
            dt = batch.t1 - batch.t0
            for gid in ids:
                polygon = self.geometries[gid]
                near = batch.near(polygon.bbox, uncovered)
                if near.size:
                    dwell, _ = segments_dwell(
                        polygon, *batch.ends(near), dt[near], obs=self.obs
                    )
                    total += float(dwell.sum())
        return total

    # -- lattice rollup and cube exposure -------------------------------------

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

    def _id_sets(self, key, oid, size: int) -> List[frozenset]:
        """Per key ``0..size-1`` the objects of the ``(key, oid)`` pairs."""
        order = np.argsort(key, kind="stable")
        cuts = np.searchsorted(key[order], np.arange(size + 1)).tolist()
        oids = [self._table.oids[c] for c in oid[order].tolist()]
        return [frozenset(oids[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]

    def rollup_cells(
        self, parent_level: str
    ) -> Dict[Tuple[Hashable, Hashable], PreAggCell]:
        """Derive coarser cells along the granularity lattice.

        Child cells merge into their parent granule: counts and dwell
        add, id sets union, and spanning records whose endpoints fall in
        the *same* parent become intra-parent (their dwell and oid join
        the parent cell — this is what makes the rollup exact rather
        than a lossy counter sum).  Raises
        :class:`~repro.errors.RollupError` when some child granule
        straddles two parents.
        """
        parent, mapping = self.partition.rollup_codes(self.time, parent_level)
        table, width = self._table, len(parent)
        size = len(self.gids) * width
        gid, granule = np.divmod(table.cell, len(self.partition))
        key = gid * width + mapping[granule]
        intra = np.flatnonzero(mapping[table.span_a] == mapping[table.span_b])
        span_key = table.span_gid[intra] * width + mapping[table.span_a[intra]]
        samples = np.bincount(key, weights=table.samples, minlength=size)
        dwell = np.bincount(key, weights=table.dwell, minlength=size)
        dwell += np.bincount(
            span_key, weights=table.span_dwell[intra], minlength=size
        )
        sampled = table.samples > 0
        present = self._id_sets(key[sampled], table.oid[sampled], size)
        passers = self._id_sets(
            np.concatenate((key, span_key)),
            np.concatenate((table.oid, table.span_oid[intra])),
            size,
        )
        # (A cell with a sample or any dwell has a passer.)
        labels = ((gid, member) for gid in self.gids for member in parent.members)
        return {
            label: PreAggCell(
                int(samples[cell]), float(dwell[cell]),
                present[cell], passers[cell],
            )
            for cell, label in enumerate(labels) if passers[cell]
        }

    def as_cube(self) -> "Cube":
        """Expose the finest-granule cells as an OLAP :class:`Cube`.

        The fact table has one row per non-empty cell with measures
        ``samples``, ``dwell``, ``distinct_objects`` and
        ``passing_objects`` (the id sets surface as exact counts; the
        sets themselves stay queryable through :meth:`cell`).  The time
        attribute binds to the granule level, so cube rollups climb the
        real Time lattice.  Note the cube's cells are *per-granule*
        summaries: segments crossing granule boundaries contribute to
        window queries (:meth:`objects_through`) but to no single cell.
        """
        table, n = self._table, len(self.partition)
        passing = np.diff(table.offsets)
        distinct = np.bincount(
            table.cell[table.samples > 0], minlength=passing.size
        )
        rows = [
            {
                "granule": self.partition.members[cell % n],
                "geometry": self.gids[cell // n],
                "samples": int(table.cell_samples.flat[cell]),
                "dwell": float(table.cell_dwell.flat[cell]),
                "distinct_objects": int(distinct[cell]),
                "passing_objects": int(passing[cell]),
            }
            for cell in np.flatnonzero(passing).tolist()
        ]
        return self._cells_cube(
            "geometry",
            ("samples", "dwell", "distinct_objects", "passing_objects"),
            rows,
        )

    # -- shard merge ----------------------------------------------------------

    def _absorb(self, store: "PreAggStore") -> None:
        """The shard's rows and spanning records join this table under
        oid codes shifted past its own (:meth:`merge` has checked that
        the two hold no object in common)."""
        mine, theirs = self._table, store._table
        shift = OID_DTYPE(len(mine.oids))
        fold = _Fold(
            mine.oids + theirs.oids, np.concatenate((mine.last, theirs.last)),
            mine[_ROWS], mine[_SPANS],
        )
        cell, oid, samples, dwell = theirs[_ROWS]
        fold.stage(cell, oid + shift, samples, dwell)
        gid, oid, a, b, dwell = theirs[_SPANS]
        fold.spans.append((gid, oid + shift, a, b, dwell))
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
