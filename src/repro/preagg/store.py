"""The materialized pre-aggregation store: per-(geometry, granule) cells.

The paper's Definition 4 makes geometric aggregation *summable*: once a
measure is attached to finite geometry ids, ``Q = Σ_{g∈C} h'(g)``.  This
module materializes exactly that form for the moving-object workload: a
:class:`PreAggStore` summarizes a MOFT against a set of polygons and a
contiguous time-granule partition (:meth:`repro.temporal.timedim
.TimeDimension.granules`) into cells holding

* ``samples`` — number of samples inside the polygon per granule;
* ``dwell`` — interpolated time spent inside, from intra-granule
  trajectory segments;
* ``present`` — the exact set of objects with a sample inside (sorted
  ``uint32`` oid codes — distinct-count is *not* summable, so the store
  merges id sets, never adds counters);
* ``passers`` — the exact set of objects whose granule-restricted
  trajectory intersects the polygon (trajectory semantics).

Cells alone cannot answer window queries exactly: a segment between
samples in *adjacent* granules exists in neither granule-restricted
scan.  The store therefore also keeps **spanning records** per polygon —
``(oid, granule_a, granule_b, dwell)`` for every trajectory segment whose
endpoints sit in different granules and which intersects the polygon.  A
window covering granules ``i..j`` then answers exactly as

    ∪ passers[g∈i..j]  ∪  { oid of spanning records with i ≤ a, b ≤ j }

because (all sample instants being registered) samples consecutive in the
window restriction are consecutive in the full history.  Misaligned
windows decompose into the maximal covered granule run plus *slivers* at
the edges; the hybrid answer adds a scan over only the objects touching a
sliver (their full window-restricted history), which is exact because a
window segment not accounted by the store has an endpoint in a sliver.

The lifecycle (snapshot, ``update()``, ``clone()``, ``merge()``, registry
matching) is :class:`repro.cellstore.GranuleStore`'s; this module keeps
cells, folds and reads.  Attribution is written once, as two batched
passes: samples (vectorized containment) and segments (the clip
kernel).  The build runs the whole segment table through them; an
in-time-order append its delta rows (purely additive: no prior
membership ever becomes wrong).  An out-of-order append is handled per
object by the same passes: the object's previously folded rows go
through with sign -1 (counts and intra-granule dwell come back out), its
oid is stripped from the id sets, its spanning records are dropped, and
its time-sorted history is folded again — other objects keep the pure
delta path, so a few late samples do not force a rebuild.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.cellstore import GranuleStore
from repro.errors import PreAggError
from repro.geometry.kernels import segments_dwell
from repro.geometry.polygon import Polygon
from repro.mo.moft import MOFT, SegmentBatch
from repro.obs import PipelineStats
from repro.parallel.merge import union_sorted_ids
from repro.query.vectorized import polygon_contains_batch
from repro.temporal.timedim import TimeDimension

#: uint32 oid-code dtype used for every stored id set.
OID_DTYPE = np.uint32

_EMPTY_IDS = np.empty(0, dtype=OID_DTYPE)


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


class _GidCells:
    """Per-polygon storage: granule-indexed arrays plus spanning records."""

    __slots__ = (
        "samples",
        "dwell",
        "present",
        "passers",
        "span_oid",
        "span_a",
        "span_b",
        "span_dwell",
    )

    def __init__(self, n_granules: int) -> None:
        self.samples = np.zeros(n_granules, dtype=np.int64)
        self.dwell = np.zeros(n_granules, dtype=float)
        self.present: List[np.ndarray] = [_EMPTY_IDS] * n_granules
        self.passers: List[np.ndarray] = [_EMPTY_IDS] * n_granules
        self.span_oid = np.empty(0, dtype=OID_DTYPE)
        self.span_a = np.empty(0, dtype=np.int64)
        self.span_b = np.empty(0, dtype=np.int64)
        self.span_dwell = np.empty(0, dtype=float)

    def span_mask(self, first: int, last: int) -> np.ndarray:
        """Spanning records fully inside the granule run ``first..last``."""
        return (self.span_a >= first) & (self.span_b <= last)


class _DeltaSets:
    """Python-set staging for id-set additions during build/update."""

    def __init__(self) -> None:
        self.present: Dict[Tuple[Hashable, int], Set[int]] = {}
        self.passers: Dict[Tuple[Hashable, int], Set[int]] = {}
        self.spans: Dict[Hashable, List[Tuple[int, int, int, float]]] = {}

    def add_present(self, gid: Hashable, granule: int, code: int) -> None:
        self.present.setdefault((gid, granule), set()).add(code)
        # A sample inside the polygon proves the granule-restricted
        # trajectory hits it (the adjacent intra-granule segment, or the
        # lone-point probe), so presence implies passing.
        self.passers.setdefault((gid, granule), set()).add(code)

    def add_passer(self, gid: Hashable, granule: int, code: int) -> None:
        self.passers.setdefault((gid, granule), set()).add(code)

    def add_span(
        self, gid: Hashable, code: int, a: int, b: int, dwell: float
    ) -> None:
        self.spans.setdefault(gid, []).append((code, a, b, dwell))


def _as_sorted_ids(codes: Iterable[int]) -> np.ndarray:
    return np.array(sorted(codes), dtype=OID_DTYPE)


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

    def _empty_cells(self) -> None:
        # oid interning: code -> value and value -> code.
        self._oid_values: List[Hashable] = []
        self._oid_code: Dict[Hashable, int] = {}
        # Per-object last appended sample (t, x, y) by oid code — the
        # connecting segment of the next delta batch starts here.
        self._last: Dict[int, Tuple[float, float, float]] = {}
        n_granules = len(self.partition)
        self._cells: Dict[Hashable, _GidCells] = {
            gid: _GidCells(n_granules) for gid in self.gids
        }

    def _build_cells(self) -> None:
        if len(self.moft):
            if not len(self.partition):
                raise PreAggError(
                    f"no {self.granule_level!r} granules exist but the "
                    f"MOFT has {len(self.moft)} samples"
                )
            self._build()

    def _objects(self):
        return self._oid_code.keys()

    def _intern(self, oid: Hashable) -> int:
        code = self._oid_code.get(oid)
        if code is None:
            code = len(self._oid_values)
            self._oid_code[oid] = code
            self._oid_values.append(oid)
        return code

    def decode(self, codes: np.ndarray) -> Set[Hashable]:
        """Map an oid-code array back to object identifiers."""
        return {self._oid_values[c] for c in codes.tolist()}

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

    def _build(self) -> None:
        """Fold every row and every segment of the table into the cells."""
        moft = self.moft
        t, x, y = moft.as_arrays()
        index = moft.segment_index()
        object_code = np.fromiter(
            map(self._intern, index.oids.tolist()), dtype=np.int64,
            count=index.oids.shape[0],
        )
        codes = self._granule_codes_checked(t)
        delta = _DeltaSets()
        self._fold_samples(delta, index.per_row(object_code), codes, x, y)
        for batch in moft.segments():
            self._fold_segments(delta, object_code[batch.obj], batch)
        last = index.perm[index.offsets[1:] - 1]
        self._set_last(object_code, t[last], x[last], y[last])
        self._apply_sets(delta)

    def _set_last(self, code, t, x, y) -> None:
        """Record, per object code, the sample its next segment starts at."""
        self._last.update(
            zip(code.tolist(), zip(t.tolist(), x.tolist(), y.tolist()))
        )

    def _fold_samples(
        self,
        delta: _DeltaSets,
        code: np.ndarray,
        granule: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        sign: int = 1,
    ) -> None:
        """The sample pass: vectorized containment per polygon (``sign``
        -1 takes the counts of already folded rows back out, for
        :meth:`_retract_object`, which discards what lands in ``delta``)."""
        for gid in self.gids:
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
                self._cells[gid].samples += sign * np.bincount(
                    granule[rows], minlength=len(self.partition)
                )
                for g, c in zip(granule[rows].tolist(), code[rows].tolist()):
                    delta.add_present(gid, g, c)

    def _fold_segments(
        self,
        delta: _DeltaSets,
        code: np.ndarray,
        batch: SegmentBatch,
        sign: int = 1,
    ) -> None:
        """The segment pass: one clip-kernel call per polygon.

        ``batch`` holds trajectory segments in (object, time) order and
        ``code`` their object codes.  Per polygon the hits apply in
        ascending batch order — the order a segment-by-segment walk
        would fold them in — so the float dwell sums and the span-record
        sequence do not depend on the batching.  ``sign`` -1 takes the
        intra-granule dwell of already folded segments back out.
        """
        dt = batch.t1 - batch.t0
        for gid in self.gids:
            polygon = self.geometries[gid]
            near = batch.near(polygon.bbox)
            if not near.size:
                continue
            dwell, hits = segments_dwell(
                polygon, *batch.ends(near), dt[near], obs=self.obs
            )
            cells = self._cells[gid]
            found = np.flatnonzero(hits)
            at = near[found]
            for amount, a, b, c in zip(
                (sign * dwell[found]).tolist(),
                self.partition.codes_for(batch.t0[at]).tolist(),
                self.partition.codes_for(batch.t1[at]).tolist(),
                code[at].tolist(),
            ):
                if a == b:
                    cells.dwell[a] += amount
                    delta.add_passer(gid, a, c)
                else:
                    delta.add_span(gid, c, a, b, amount)

    def _apply_sets(self, delta: _DeltaSets) -> None:
        """Union staged id sets into the sorted uint32 cell arrays."""
        for (gid, granule), codes in delta.present.items():
            cells = self._cells[gid]
            cells.present[granule] = union_sorted_ids(
                [cells.present[granule], _as_sorted_ids(codes)]
            )
        for (gid, granule), codes in delta.passers.items():
            cells = self._cells[gid]
            cells.passers[granule] = union_sorted_ids(
                [cells.passers[granule], _as_sorted_ids(codes)]
            )
        for gid, records in delta.spans.items():
            cells = self._cells[gid]
            cells.span_oid = np.concatenate(
                [cells.span_oid,
                 np.array([r[0] for r in records], dtype=OID_DTYPE)]
            )
            cells.span_a = np.concatenate(
                [cells.span_a, np.array([r[1] for r in records], dtype=np.int64)]
            )
            cells.span_b = np.concatenate(
                [cells.span_b, np.array([r[2] for r in records], dtype=np.int64)]
            )
            cells.span_dwell = np.concatenate(
                [cells.span_dwell, np.array([r[3] for r in records], dtype=float)]
            )

    # -- planner statistics ----------------------------------------------------

    def stats(self) -> PreAggStoreStats:
        """A cheap planner-facing summary (no cell access)."""
        return PreAggStoreStats(
            name=self.name,
            granule_level=self.granule_level,
            granules=len(self.partition),
            geometries=len(self.gids),
            objects=len(self._oid_values),
            built_rows=self._built_rows,
            stale=self.is_stale(),
        )

    # -- incremental maintenance ----------------------------------------------

    def _fold_rows(self, start: int) -> None:
        """The ``"delta"`` of :meth:`update`: in-time-order appends fold
        additively, objects appended out of time order are retracted and
        refolded whole (:meth:`_refold_object`)."""
        with self.obs.stage("preagg_update"):
            delta = _DeltaSets()
            for oid in self._fold_delta(delta, start):
                self._refold_object(delta, oid, start)
            self._apply_sets(delta)

    def _fold_delta(self, delta: _DeltaSets, start: int) -> List[Hashable]:
        """Fold rows ``start:`` of objects appended in time order.

        Samples and segments (each object's connecting segment from its
        last folded sample, then its in-delta segments) go through the
        batched passes of the build.  Returns the objects whose append
        was *not* in time order, untouched, for the caller to refold.
        """
        t, x, y = (column[start:] for column in self.moft.as_arrays())
        if not t.shape[0]:
            return []
        granule = self._granule_codes_checked(t)
        code = np.fromiter(
            map(self._intern, self.moft.oid_column()[start:].tolist()),
            dtype=np.int64, count=t.shape[0],
        )
        # Delta rows object by object (first-appearance order), each
        # object's rows ascending in time.
        _, first_row, inverse = np.unique(
            code, return_index=True, return_inverse=True
        )
        order = np.lexsort((t, first_row[inverse]))
        t, x, y = t[order], x[order], y[order]
        granule, code = granule[order], code[order]
        head = np.flatnonzero(np.r_[True, code[1:] != code[:-1]])
        # Every delta row's predecessor: the row before it, or for an
        # object's first delta row its last folded sample (NaN: none).
        prev_t, prev_x, prev_y = (np.r_[np.nan, c[:-1]] for c in (t, x, y))
        known = [self._last.get(c) for c in code[head].tolist()]
        prev_t[head], prev_x[head], prev_y[head] = np.array(
            [p if p is not None else (np.nan,) * 3 for p in known]
        ).reshape(-1, 3).T
        # Out-of-order append: the connecting segments already folded
        # in would change.  Those objects are left for the caller to
        # retract and refold whole; every other takes the batched delta.
        late_codes = code[head[t[head] <= prev_t[head]]]
        keep = np.ones(len(self._oid_values), dtype=bool)
        keep[late_codes] = False
        keep = keep[code]
        self._fold_samples(
            delta, code[keep], granule[keep], x[keep], y[keep]
        )
        joined = np.flatnonzero(keep & ~np.isnan(prev_t))
        self._fold_segments(
            delta,
            code[joined],
            SegmentBatch(
                prev_t[joined], t[joined],
                prev_x[joined], prev_y[joined], x[joined], y[joined],
            ),
        )
        tail = np.flatnonzero(np.r_[code[1:] != code[:-1], True] & keep)
        self._set_last(code[tail], t[tail], x[tail], y[tail])
        return [self._oid_values[c] for c in late_codes.tolist()]

    def _fold_history(
        self, delta: _DeltaSets, code: int, rows: np.ndarray, sign: int = 1
    ) -> None:
        """One object's time-sorted ``rows`` through the two fold passes."""
        t, x, y = (column[rows] for column in self.moft.as_arrays())
        codes = np.full(rows.shape[0], code, dtype=np.int64)
        self._fold_samples(
            delta, codes, self._granule_codes_checked(t), x, y, sign
        )
        self._fold_segments(
            delta,
            codes[1:],
            SegmentBatch(t[:-1], t[1:], x[:-1], y[:-1], x[1:], y[1:]),
            sign,
        )

    def _refold_object(
        self, delta: _DeltaSets, oid: Hashable, start: int
    ) -> None:
        """Retract one object's folded state and refold its full history.

        Used when an append delivered the object a sample at or before
        its last folded instant: connecting segments already attributed
        to cells would change, so the object's entire contribution —
        its rows below ``start`` — is removed (:meth:`_retract_object`)
        and rebuilt from its current time-sorted history: exactly what a
        full :meth:`refresh` would produce for this object, without
        touching any other object.
        """
        code = self._oid_code[oid]
        times, rows = self.moft._object_order(oid)
        # (A subset of a stable time order is the subset's stable order:
        # the order these rows were folded in.)
        self._retract_object(code, rows[rows < start])
        self._fold_history(delta, code, rows)
        _, x, y = self.moft.as_arrays()
        self._last[code] = (
            float(times[-1]), float(x[rows[-1]]), float(y[rows[-1]])
        )

    def _retract_object(self, code: int, prior: np.ndarray) -> None:
        """Remove every folded contribution of one object from the cells.

        The object's *previously folded* rows ``prior``, in the time
        order they were folded in, go through the fold passes with sign
        -1, which takes their sample counts and intra-granule dwell back
        out; then the oid code is stripped from every id set and its
        spanning records dropped (their dwell lives only in the records,
        so dropping them is the complete retraction).
        """
        self._fold_history(_DeltaSets(), code, prior, sign=-1)
        for cells in self._cells.values():
            for id_sets in (cells.present, cells.passers):
                for g, arr in enumerate(id_sets):
                    if arr.size and code in arr:
                        id_sets[g] = arr[arr != code]
            if cells.span_oid.size:
                keep = cells.span_oid != code
                if not keep.all():
                    cells.span_oid = cells.span_oid[keep]
                    cells.span_a = cells.span_a[keep]
                    cells.span_b = cells.span_b[keep]
                    cells.span_dwell = cells.span_dwell[keep]

    def _own_cells(self) -> None:
        # Copied: what folds mutate in place — the interning tables,
        # ``samples``/``dwell`` and the per-granule id-set lists.  The id
        # and spanning-record arrays are rebound on write, so stay shared.
        self._oid_values = list(self._oid_values)
        self._oid_code = dict(self._oid_code)
        self._last = dict(self._last)
        shared, self._cells = self._cells, {}
        for gid, src in shared.items():
            dst = self._cells[gid] = copy.copy(src)
            dst.samples, dst.dwell = src.samples.copy(), src.dwell.copy()
            dst.present, dst.passers = list(src.present), list(src.passers)

    # -- granule-run queries --------------------------------------------------

    def _run_codes(
        self, ids: Iterable[Hashable], first: int, last: int, which: str
    ) -> np.ndarray:
        if not (0 <= first <= last < len(self.partition)):
            raise PreAggError(
                f"granule run {first}..{last} out of range "
                f"0..{len(self.partition) - 1}"
            )
        parts: List[np.ndarray] = []
        for gid in ids:
            cells = self._cells_for(gid)
            per_granule = cells.passers if which == "passers" else cells.present
            parts.extend(per_granule[first:last + 1])
            if which == "passers" and cells.span_oid.size:
                parts.append(cells.span_oid[cells.span_mask(first, last)])
        return union_sorted_ids(parts)

    def _cells_for(self, gid: Hashable) -> _GidCells:
        try:
            return self._cells[gid]
        except KeyError:
            raise PreAggError(
                f"geometry {gid!r} is not materialized in store {self.name!r}"
            ) from None

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
        return int(
            sum(
                self._cells_for(gid).samples[first:last + 1].sum()
                for gid in ids
            )
        )

    def dwell_time(
        self, ids: Iterable[Hashable], first: int, last: int
    ) -> float:
        """Interpolated time inside the polygons over the granule run.

        Sums intra-granule cell dwell plus spanning-segment dwell for
        segments fully inside the run.  Overlapping polygons double-count
        (per-polygon dwell is summed), matching the serial per-polygon
        reference.
        """
        total = 0.0
        for gid in ids:
            cells = self._cells_for(gid)
            total += float(cells.dwell[first:last + 1].sum())
            if cells.span_dwell.size:
                total += float(
                    cells.span_dwell[cells.span_mask(first, last)].sum()
                )
        return total

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
        oid_col = self.moft.oid_column()
        sliver_oids = set(oid_col[sliver].tolist())
        mask = np.zeros(len(self.moft), dtype=bool)
        for oid in sliver_oids:
            mask[self.moft._object_rows()[oid]] = True
        mask &= window
        return mask

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
        for gid in ids:
            self._cells_for(gid)  # the typed error, covered run or not
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
        """Decode one finest-granule cell."""
        cells = self._cells_for(gid)
        granule = self.partition.code_of(member)
        return PreAggCell(
            samples=int(cells.samples[granule]),
            dwell=float(cells.dwell[granule]),
            distinct_objects=frozenset(self.decode(cells.present[granule])),
            passing_objects=frozenset(self.decode(cells.passers[granule])),
        )

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
        out: Dict[Tuple[Hashable, Hashable], PreAggCell] = {}
        for gid in self.gids:
            cells = self._cells[gid]
            span_pa = mapping[cells.span_a] if cells.span_oid.size else None
            span_pb = mapping[cells.span_b] if cells.span_oid.size else None
            for p, member in enumerate(parent.members):
                children = np.flatnonzero(mapping == p)
                samples = int(cells.samples[children].sum())
                dwell = float(cells.dwell[children].sum())
                present = union_sorted_ids(
                    [cells.present[int(g)] for g in children]
                )
                passer_parts = [cells.passers[int(g)] for g in children]
                if span_pa is not None:
                    intra = (span_pa == p) & (span_pb == p)
                    dwell += float(cells.span_dwell[intra].sum())
                    passer_parts.append(cells.span_oid[intra])
                passers = union_sorted_ids(passer_parts)
                if samples or dwell or present.size or passers.size:
                    out[(gid, member)] = PreAggCell(
                        samples=samples,
                        dwell=dwell,
                        distinct_objects=frozenset(self.decode(present)),
                        passing_objects=frozenset(self.decode(passers)),
                    )
        return out

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
        rows = []
        for gid in self.gids:
            cells = self._cells[gid]
            for granule, member in enumerate(self.partition.members):
                samples = int(cells.samples[granule])
                dwell = float(cells.dwell[granule])
                present = cells.present[granule]
                passers = cells.passers[granule]
                if not (samples or dwell or present.size or passers.size):
                    continue
                rows.append(
                    {
                        "granule": member,
                        "geometry": gid,
                        "samples": samples,
                        "dwell": dwell,
                        "distinct_objects": int(present.size),
                        "passing_objects": int(passers.size),
                    }
                )
        return self._cells_cube(
            "geometry",
            ("samples", "dwell", "distinct_objects", "passing_objects"),
            rows,
        )

    # -- shard merge ----------------------------------------------------------

    def _absorb(self, store: "PreAggStore") -> None:
        """Counts and dwell add; id sets union after re-interning the
        shard's oid codes into this store."""
        remap = np.array(
            [self._intern(oid) for oid in store._oid_values],
            dtype=OID_DTYPE,
        )
        for code, last in store._last.items():
            self._last[int(remap[code])] = last
        for gid in self.gids:
            src = store._cells[gid]
            dst = self._cells[gid]
            dst.samples += src.samples
            dst.dwell += src.dwell
            for g in range(len(self.partition)):
                if src.present[g].size:
                    dst.present[g] = union_sorted_ids(
                        [dst.present[g], np.sort(remap[src.present[g]])]
                    )
                if src.passers[g].size:
                    dst.passers[g] = union_sorted_ids(
                        [dst.passers[g], np.sort(remap[src.passers[g]])]
                    )
            if src.span_oid.size:
                dst.span_oid = np.concatenate(
                    [dst.span_oid, remap[src.span_oid]]
                )
                dst.span_a = np.concatenate([dst.span_a, src.span_a])
                dst.span_b = np.concatenate([dst.span_b, src.span_b])
                dst.span_dwell = np.concatenate(
                    [dst.span_dwell, src.span_dwell]
                )

    def __repr__(self) -> str:
        return (
            f"PreAggStore({self.name!r}, level={self.granule_level!r}, "
            f"granules={len(self.partition)}, geometries={len(self.gids)}, "
            f"objects={len(self._oid_values)}, "
            f"stale={self.is_stale()})"
        )


__all__ = [
    "OID_DTYPE",
    "PreAggCell",
    "PreAggStore",
    "PreAggStoreStats",
]
