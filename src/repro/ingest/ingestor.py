"""The streaming writer: watermarked batches in, query snapshots out.

:class:`StreamingIngestor` turns out-of-order GPS sample batches into
the same world a one-shot batch load would have produced — that
equivalence is the whole contract, pinned by the differential campaign
in ``tests/ingest``.  The moving parts:

**Batches are columns.**  :meth:`StreamingIngestor.submit` checks a
whole batch — equal lengths, flat numeric columns, all finite, hashable
ids, no ``(object, t)`` buffered twice — before it routes any of it, so
a bad batch raises :class:`~repro.errors.IngestError` and changes
nothing.  Routing is one late mask; what stays joins the buffer as one
column chunk.

**Watermark.**  ``watermark = max event time seen − allowed_lateness``,
monotone by construction.  A sample is *late* when it arrives at or
below the watermark computed from *previously* submitted batches (one
batch can therefore span any time range without marking itself late).
Late samples are never silently dropped: they go to a side channel
(:meth:`StreamingIngestor.late_samples`) and the ``samples_late``
counter, keeping ``samples_ingested + samples_late + samples_buffered
== samples_submitted`` exhaustive at every instant.

**Sealing.**  After the watermark advances, every buffered sample with
``t <= watermark`` is *sealed*: sorted by ``(t, repr(oid))`` — one
``lexsort`` on ``t`` and a per-object dense rank of ``repr(oid)`` —
into one delta, appended to the head snapshot's table
(:meth:`~repro.mo.moft.MOFT.appended`, which hands the new table its
parent's segment index extended by the delta's), and folded into cloned
pre-agg stores, which read the delta's object codes off that table.
Sealed regions never reopen — any sample later
arriving inside one is late by the watermark test above, which is
exactly what makes each publish a strict per-object time extension and
keeps :meth:`~repro.preagg.PreAggStore.update` on the pure delta path
(no retraction, no rebuild; ``tests/ingest/test_watermark_properties.py``
asserts this).
Every step of a flush is array work on the delta and the buffer, plus
the column copies of the new table.  That table starts with its
parent's rows, in the same positions, so a store folded against one
version is cloned onto the next and folds exactly the rows past its
own.

**MVCC maintenance.**  Readers pin :meth:`snapshot` — an immutable
bundle of (table, folded stores, lazily built
:class:`~repro.query.region.EvaluationContext`).  The maintainer never
mutates a published store: it clones copy-on-write
(:meth:`~repro.preagg.PreAggStore.clone`), repoints the clone at the
new snapshot table and folds forward, then swaps the snapshot
reference.  A reader mid-query keeps its pinned version; the planner's
identity matching (``store.moft is moft``) guarantees the stores it
routes through describe exactly the table it scans.  The snapshot's
``ordinal`` counts publishes: version 0 is the base (or an empty
table), each flush that seals anything is one more.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IngestError, TrajectoryError
from repro.mo.moft import MOFT, intern
from repro.obs import PipelineStats
from repro.preagg import PreAggStore
from repro.query.region import EvaluationContext
from repro.temporal.timedim import TimeDimension


@dataclass(frozen=True)
class IngestConfig:
    """Tuning knobs of one streaming ingestor.

    allowed_lateness:
        How far (in event-time units) the watermark trails the newest
        event seen.  ``0.0`` seals every sample as soon as a newer one
        arrives; larger values buffer more but tolerate more disorder.
    compact_every:
        Read by nothing: a flush extends the head snapshot's table, so
        there is no chain of segments to collapse.  Kept, validated as
        ``>= 0``, only because the end-to-end benchmark's
        ``ingest_interleaved`` workload still passes it; the
        ``[benchmark]`` change of ROADMAP item 9(a) drops that argument,
        and this field with it.
    """

    allowed_lateness: float = 0.0
    compact_every: int = 8

    def __post_init__(self) -> None:
        if not math.isfinite(self.allowed_lateness) or self.allowed_lateness < 0:
            raise IngestError(
                f"allowed_lateness must be finite and >= 0, "
                f"got {self.allowed_lateness!r}"
            )
        if self.compact_every < 0:
            raise IngestError(
                f"compact_every must be >= 0, got {self.compact_every!r}"
            )


@dataclass(frozen=True)
class StoreSpec:
    """One pre-agg store the ingestor maintains across snapshots.

    ``kind`` picks the store flavor: the default geometry kinds build a
    :class:`~repro.preagg.PreAggStore` over the layer's elements of that
    kind; ``kind="poi"`` builds a :class:`~repro.poi.PoiVisitStore` over
    the layer's place-of-interest discs, maintained through the same
    clone-and-fold path (``min_dwell`` applies only there).
    """

    granule_level: str
    layer: str
    kind: str
    min_dwell: float = 0.0

    def __post_init__(self) -> None:
        if self.min_dwell != 0.0 and self.kind != "poi":
            raise IngestError(
                f"min_dwell only applies to POI stores, not kind "
                f"{self.kind!r}"
            )


@dataclass(frozen=True)
class IngestReport:
    """What one :meth:`StreamingIngestor.submit` call did."""

    submitted: int
    ingested: int
    late: int
    buffered: int
    watermark: float
    ordinal: int
    rows: int


class IngestSnapshot:
    """An immutable queryable version: table + folded stores + context.

    Holding the reference pins the version; :meth:`context` builds (and
    caches) an :class:`~repro.query.region.EvaluationContext` with the
    stores registered, so planned queries route through pre-agg exactly
    as they would against a batch-loaded world.
    """

    __slots__ = (
        "ordinal",
        "watermark",
        "moft",
        "stores",
        "_gis",
        "_time",
        "_context",
        "_lock",
    )

    def __init__(
        self,
        ordinal: int,
        watermark: float,
        moft: MOFT,
        stores: Tuple[PreAggStore, ...],
        gis,
        time: TimeDimension,
    ) -> None:
        self.ordinal = ordinal
        self.watermark = watermark
        self.moft = moft
        self.stores = stores
        self._gis = gis
        self._time = time
        self._context: Optional[EvaluationContext] = None
        self._lock = threading.Lock()

    @property
    def rows(self) -> int:
        return len(self.moft)

    def context(self) -> EvaluationContext:
        """The evaluation context of this version (built once, cached)."""
        with self._lock:
            if self._context is None:
                context = EvaluationContext(self._gis, self._time, self.moft)
                for store in self.stores:
                    context.register_preagg(store)
                self._context = context
            return self._context

    def __repr__(self) -> str:
        return (
            f"IngestSnapshot(ordinal={self.ordinal}, rows={self.rows}, "
            f"watermark={self.watermark:g}, stores={len(self.stores)})"
        )


class StreamingIngestor:
    """Accepts out-of-order sample batches; publishes query snapshots.

    Parameters
    ----------
    gis / time:
        The spatial and temporal dimensions queries evaluate against
        (shared by every snapshot — only the fact table versions).
    moft_name:
        Name of the versioned fact table (what query specs reference).
    base:
        Optional pre-loaded MOFT to seed version 0 with (e.g. a
        historical batch load the stream continues from).
    config:
        Watermark tuning; see :class:`IngestConfig`.
    store_specs:
        Pre-agg stores to maintain incrementally across versions, one
        per ``(granule_level, layer, kind)``.
    obs:
        Receives the ingest vocabulary (see :mod:`repro.obs`).

    Thread safety: any number of threads may call :meth:`submit` /
    :meth:`close` (serialized by an internal lock) while readers call
    :meth:`snapshot` without blocking.
    """

    def __init__(
        self,
        gis,
        time: TimeDimension,
        moft_name: str = "FM",
        base: Optional[MOFT] = None,
        config: Optional[IngestConfig] = None,
        store_specs: Sequence[StoreSpec] = (),
        obs: Optional[PipelineStats] = None,
    ) -> None:
        self.gis = gis
        self.time = time
        self.config = config if config is not None else IngestConfig()
        self.obs = obs if obs is not None else PipelineStats()
        self._name = moft_name
        self._lock = threading.RLock()
        # Samples above the watermark, awaiting their seal: one
        # (oids, codes, t, x, y) column chunk per routed batch.
        self._buffer: List[Tuple[np.ndarray, ...]] = []
        self._buffered = 0
        # oid -> code in arrival order, each code's repr(oid) and the
        # codes' dense rank by that repr (None: an object came since).
        self._intern: Dict[Hashable, int] = {}
        self._reprs: List[str] = []
        self._rank: Optional[np.ndarray] = None
        # Each code's newest routed (not late) event time.
        self._newest = np.empty(0)
        self._late: List[Tuple[Hashable, float, float, float]] = []
        self._max_t = -math.inf
        self._watermark = -math.inf
        self._closed = False
        table = base if base is not None and len(base) else MOFT(moft_name)
        stores = tuple(
            self._build_store(table, spec) for spec in store_specs
        )
        self._snapshot = IngestSnapshot(
            0, self._watermark, table, stores, gis, time
        )
        self.obs.gauge("snapshot_count", 1)

    def _build_store(self, table: MOFT, spec: StoreSpec):
        """Build the store flavor a spec asks for over one table version
        (a polygon store folds through the layer's kept pass, which
        every snapshot's scans of the same answer read too)."""
        elements = self.gis.layer(spec.layer).elements(spec.kind)
        if spec.kind == "poi":
            from repro.poi import PoiVisitStore

            return PoiVisitStore(
                table,
                self.time,
                spec.granule_level,
                elements,
                layer=spec.layer,
                min_dwell=spec.min_dwell,
                obs=self.obs,
            )
        return PreAggStore(
            table,
            self.time,
            spec.granule_level,
            elements,
            layer=spec.layer,
            kind=spec.kind,
            obs=self.obs,
            polygons=self.gis.layer(spec.layer).geometry_index(spec.kind),
        )

    # -- reader API ----------------------------------------------------------

    def snapshot(self) -> IngestSnapshot:
        """Pin the current version (atomic reference read, never blocks)."""
        return self._snapshot

    @property
    def watermark(self) -> float:
        return self._watermark

    def late_samples(self) -> Tuple[Tuple[Hashable, float, float, float], ...]:
        """The side channel: every sample routed late, in arrival order."""
        with self._lock:
            return tuple(self._late)

    # -- writer API ----------------------------------------------------------

    def submit(
        self,
        oids: Sequence[Hashable],
        ts: Sequence[float],
        xs: Sequence[float],
        ys: Sequence[float],
    ) -> IngestReport:
        """Route one batch, advance the watermark, seal what it passed.

        The whole batch is checked first — equal column lengths, numbers,
        all finite, hashable ids, no sample whose ``(object, t)`` is
        already buffered or repeats in the batch — and a bad one raises
        :class:`~repro.errors.IngestError` with nothing routed: counters,
        buffer and late channel stay as they were, so the corrected batch
        can simply be submitted again.  Then each sample is routed
        against the watermark as of the *previous* batches (one mask),
        the batch's own event times advance it, and samples the new
        watermark passed (this batch's or earlier buffered ones) are
        sealed into one delta, appended to the head's table and folded
        into the cloned stores.  Returns what happened to the batch.
        """
        with self._lock:
            if self._closed:
                raise IngestError("ingestor is closed; no further batches")
            oid_col, codes, t, x, y = self._checked(oids, ts, xs, ys)
            n = t.shape[0]
            self.obs.incr("ingest_batches")
            self.obs.incr("samples_submitted", n)
            late = t <= self._watermark
            late_now = int(np.count_nonzero(late))
            if late_now:
                self._late.extend(zip(
                    oid_col[late].tolist(), t[late].tolist(),
                    x[late].tolist(), y[late].tolist(),
                ))
                kept = ~late
                oid_col, codes, t, x, y = (
                    v[kept] for v in (oid_col, codes, t, x, y)
                )
            self.obs.incr("samples_late", late_now)
            if t.size:
                self._buffer.append((oid_col, codes, t, x, y))
                np.maximum.at(self._newest, codes, t)
                self._buffered += t.size
                self._max_t = max(self._max_t, float(t.max()))
            advanced = self._max_t - self.config.allowed_lateness
            if advanced > self._watermark:
                self._watermark = advanced
            sealed = self._flush_locked()
            self._refresh_gauges()
            return IngestReport(
                submitted=n,
                ingested=sealed,
                late=late_now,
                buffered=self._buffered,
                watermark=self._watermark,
                ordinal=self._snapshot.ordinal,
                rows=self._snapshot.rows,
            )

    def _checked(self, oids, ts, xs, ys) -> Tuple[np.ndarray, ...]:
        """One batch as ``(oids, codes, t, x, y)`` columns, or the
        :class:`~repro.errors.IngestError` it deserves; objects new to
        the ingestor are interned only once the whole batch passed."""
        n = len(ts)
        if not (len(oids) == n == len(xs) == len(ys)):
            raise IngestError(
                f"ragged sample batch: {len(oids)}/{n}/{len(xs)}/"
                f"{len(ys)} column lengths"
            )
        try:
            t, x, y = (np.asarray(v, dtype=float) for v in (ts, xs, ys))
        except (TypeError, ValueError) as exc:
            raise IngestError(f"non-numeric sample column: {exc}") from exc
        if not t.shape == x.shape == y.shape == (n,):
            raise IngestError(
                "ragged sample batch: columns must be flat sequences"
            )
        oid_col = np.fromiter(oids, dtype=object, count=n)
        bad = np.flatnonzero(~(np.isfinite(t) & np.isfinite(x) & np.isfinite(y)))
        if bad.size:
            row = bad[0]
            raise IngestError(
                f"non-finite sample ({oid_col[row]!r}, {t[row].item()!r}, "
                f"{x[row].item()!r}, {y[row].item()!r})"
            )
        try:
            codes, fresh = intern(self._intern, oid_col.tolist())
        except TypeError as exc:
            raise IngestError(f"unhashable object id: {exc}") from exc
        self._refuse_twins(oid_col, codes, t)
        if fresh:
            self._intern.update(fresh)
            self._reprs.extend(map(repr, fresh))
            self._rank = None
        return oid_col, codes, t, x, y

    def _refuse_twins(self, oid_col, codes, t) -> None:
        """Raise when the batch would buffer one ``(object, t)`` twice —
        two of its own rows, or a row and a buffered sample: sealed
        together they make a malformed delta, and every later seal would
        fail on it.  (A sealed sample's twin is late, never buffered.)

        A row can repeat a buffered sample only when its time is at or
        below its object's newest routed one (``_newest``), and a row of
        its batch only when its object comes twice.  One adjacent-equal
        test on ``(code, t)`` runs over the batch rows of such objects
        and, for the first kind, their buffered rows: a feed that brings
        each object forward in time never sorts its buffer."""
        kept = t > self._watermark
        code, at = codes[kept], t[kept]
        if not code.size:
            return
        grow = int(code.max()) + 1 - self._newest.size
        if grow > 0:
            self._newest = np.concatenate(
                (self._newest, np.full(grow, -np.inf))
            )
        behind = at <= self._newest[code]
        check = behind | (np.bincount(code)[code] > 1)
        if not check.any():
            return
        picked = [(oid_col[kept][check], code[check], at[check])]
        if behind.any():
            # (Every buffered code came in a batch: ``_newest`` covers it.)
            wanted = np.zeros(self._newest.size, dtype=bool)
            wanted[code[behind]] = True
            for chunk in self._buffer:
                rows = wanted[chunk[1]]
                picked.append(tuple(column[rows] for column in chunk[:3]))
        oids, code, at = (np.concatenate(column) for column in zip(*picked))
        order = np.lexsort((at, code))
        code, at = code[order], at[order]
        twins = np.flatnonzero((code[1:] == code[:-1]) & (at[1:] == at[:-1]))
        if twins.size:
            raise IngestError(
                f"duplicate sample: object {oids[order[twins[0]]]!r} at "
                f"t={float(at[twins[0]])} is already buffered or twice in "
                f"the batch"
            )

    def close(self) -> IngestSnapshot:
        """End of stream: seal every buffered sample.

        The watermark jumps to the newest event seen, so nothing stays
        buffered; the final snapshot answers exactly like a one-shot
        batch load of every accepted sample.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return self._snapshot
            self._closed = True
            if self._buffered:
                self._watermark = max(self._watermark, self._max_t)
                self._flush_locked()
            self._refresh_gauges()
            return self._snapshot

    # -- internals (lock held) -----------------------------------------------

    def _flush_locked(self) -> int:
        """Seal buffered samples the watermark passed; publish the fold.

        The seal order is ``(t, repr(oid))`` — one ``lexsort`` on ``t``
        and each object's dense rank by ``repr``, stable, so samples
        equal in both keep their arrival order."""
        watermark = self._watermark
        if not any(chunk[2].min() <= watermark for chunk in self._buffer):
            return 0
        oid_col, codes, t, x, y = columns = tuple(
            map(np.concatenate, zip(*self._buffer))
        )
        ready = t <= watermark
        rows = np.flatnonzero(ready)
        rows = rows[np.lexsort((self._repr_rank()[codes[rows]], t[rows]))]
        with self.obs.stage("ingest_fold"):
            try:
                table = self._snapshot.moft.appended(
                    oid_col[rows], t[rows], x[rows], y[rows]
                )
            except (TrajectoryError, TypeError, ValueError) as exc:
                raise IngestError(f"malformed delta segment: {exc}") from exc
            table.name = self._name
            self._fold_and_swap(table)
        kept = ~ready
        self._buffer = [tuple(v[kept] for v in columns)] if kept.any() else []
        self._buffered -= rows.size
        self.obs.incr("samples_ingested", rows.size)
        self.obs.incr("ingest_flushes")
        return int(rows.size)

    def _repr_rank(self) -> np.ndarray:
        """Each code's dense rank by ``repr(oid)`` (ranked again only
        after new objects came)."""
        if self._rank is None:
            self._rank = np.unique(
                np.array(self._reprs, dtype=str), return_inverse=True
            )[1]
        return self._rank

    def _fold_and_swap(self, table: MOFT) -> None:
        """Clone stores onto the new table, fold, swap the bundle."""
        stores = tuple(
            store.clone(moft=table) for store in self._snapshot.stores
        )
        for store in stores:
            store.update()
        ordinal = self._snapshot.ordinal + 1
        self._snapshot = IngestSnapshot(
            ordinal, self._watermark, table, stores, self.gis, self.time
        )
        self.obs.gauge("snapshot_count", ordinal + 1)

    def _refresh_gauges(self) -> None:
        self.obs.gauge("samples_buffered", self._buffered)
        lag = (
            self._max_t - self._watermark
            if math.isfinite(self._max_t) and math.isfinite(self._watermark)
            else 0.0
        )
        self.obs.gauge("watermark_lag", lag)

    def __repr__(self) -> str:
        return (
            f"StreamingIngestor({self._name!r}, "
            f"watermark={self._watermark:g}, "
            f"buffered={self._buffered}, late={len(self._late)}, "
            f"ordinal={self._snapshot.ordinal})"
        )


__all__ = [
    "IngestConfig",
    "IngestReport",
    "IngestSnapshot",
    "StoreSpec",
    "StreamingIngestor",
]
