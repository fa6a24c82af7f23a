"""Query evaluation strategies — Section 5 of the paper.

The paper sketches the Piet pipeline: (1) answer the geometric subquery
against the *precomputed overlay*, yielding geometry ids; (2) intersect
trajectory segments with those geometries — "for each object, and for each
consecutive pair of points in the moving objects fact table, [check] if the
intersection between the segment defined by these two points and a city in
the answer ... is not empty.  If so, it counts for the aggregation.  In
the worst case, the whole trajectory must be checked."

:class:`TrajectoryIntersectionCounter` implements step (2) with four
refinements that the benchmarks ablate:

* early exit per object once a hit is found (the paper's "if so, it
  counts");
* bounding-box prefiltering per segment (counted as ``bbox_rejections``
  on both the naive and the indexed path);
* a spatial-index candidate filter over the answer geometries — either
  built in place or borrowed prebuilt from
  :meth:`~repro.query.region.EvaluationContext.geometry_index`;
* an optional columnar prefilter (:func:`repro.query.vectorized
  .points_in_polygons`): when every answer geometry is a polygon, a
  sampled point inside a polygon already proves the trajectory
  intersects, so those objects skip the segment scan entirely.

When every answer geometry is a polygon the scan is *batched*: the
table's segment table (:meth:`repro.mo.moft.MOFT.segments`) goes through
the clip kernel once per polygon for all objects together, and the
per-object walk serves the other geometry kinds, single-sample objects
and tables too small to repay a kernel call.  The grid index is a
refinement of the walk only; the batched scan prefilters by bounding
box per polygon.

That scan is the *leaf* of the one through-count path, which also
lives here: :func:`resolve_through` resolves a query once (geometric
subquery, time restriction, the store match) and
:func:`execute_through` executes the operands — store read, scan leaf,
the leaf fanned out, or store answer plus sliver scan.  The function
API below, the planner (:mod:`repro.query.planner`), the dwell aggregate
and Piet-QL all plan on and execute from those operands.

Instrumentation is the :mod:`repro.obs` vocabulary —
:class:`~repro.obs.EvaluationStats` is re-exported here for
compatibility.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.errors import EvaluationError
from repro.geometry import kernels
from repro.geometry.index import UniformGridIndex, index_for_geometries
from repro.geometry.overlay import geometries_intersect, geometry_bbox
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.segment import Segment
from repro.mo.moft import (
    MOFT,
    SegmentBatch,
    instants_member_mask,
    sorted_instants,
)
from repro.obs import EvaluationStats, PipelineStats
from repro.query.region import EvaluationContext
from repro.query.vectorized import points_in_polygons

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.preagg.store import PreAggStore

#: Below this many rows the per-object walk beats the batched scan: a
#: kernel call costs about as much as walking a dozen segments.
BATCH_MIN_ROWS = 64

#: A time restriction as ``(window, instants)``: a closed ``[start,
#: end]`` window or a DURING instant set (the set wins when both are
#: given) — the arguments of :func:`restriction_mask` after ``t``.
TimeRestriction = Tuple[Optional[Tuple[float, float]], Optional[Set[float]]]


def restriction_mask(
    t: np.ndarray,
    window: Optional[Tuple[float, float]] = None,
    instants: Optional[Set[float]] = None,
) -> np.ndarray:
    """The rows of an instant column ``t`` a time restriction keeps.

    The one definition of "restricted to": :attr:`ThroughOperands
    .row_mask` applies it to the whole table and every shard task of a
    fanned-out scan to its own rows, so the two cannot disagree on an
    instant (membership in ``instants`` is the ulp-tolerant test of
    :func:`~repro.mo.moft.instants_member_mask`).
    """
    if instants is not None:
        return instants_member_mask(t, sorted_instants(instants))
    return (t >= window[0]) & (t <= window[1])


class ShardedTrajectoryExecutor(Protocol):
    """What :func:`execute_through` needs from a parallel executor."""

    def matching_objects(
        self,
        counter: "TrajectoryIntersectionCounter",
        moft: MOFT,
        stats: Optional["EvaluationStats"] = None,
        n_shards: Optional[int] = None,
        restriction: Optional[TimeRestriction] = None,
    ) -> Set[Hashable]:
        """Return the matched object ids, merged exactly across shards
        (``n_shards``: a planner-chosen shard count for this one scan;
        ``restriction``: scan only the rows of ``moft`` it keeps)."""
        ...


class TrajectoryIntersectionCounter:
    """Counts objects whose trajectory meets any of a set of geometries.

    Parameters
    ----------
    geometries:
        Mapping ``geometry id -> geometry`` — the answer of the geometric
        subquery (e.g. the cities crossed by a river containing a store).
    use_index:
        Build a grid index over the geometries and only test segments
        against candidates whose boxes meet the segment's box (the
        per-object walk; the batched scan prefilters per polygon).
    early_exit:
        Stop scanning an object's trajectory at the first hit (batched:
        the object leaves the scan before the next kernel call).
    index:
        A prebuilt :class:`UniformGridIndex` over exactly these
        geometries (e.g. from ``EvaluationContext.geometry_index``);
        ignored when ``use_index`` is False.
    vectorized_prefilter:
        When every geometry is a polygon, accept objects with a sampled
        point inside some polygon via the columnar batch test before
        falling back to the per-segment scan.  Sound because a segment
        endpoint inside a closed polygon intersects it; the result set is
        identical, only the operation counts differ.
    """

    def __init__(
        self,
        geometries: Dict[Hashable, object],
        use_index: bool = True,
        early_exit: bool = True,
        index: Optional[UniformGridIndex] = None,
        vectorized_prefilter: bool = False,
    ) -> None:
        if not geometries:
            raise EvaluationError("no geometries to intersect against")
        #: In id order, not the answer set's hash order, so the
        #: early-exit counts (of the batched scan and of the unindexed
        #: walk alike) repeat from run to run.
        self.geometries = {
            gid: geometries[gid] for gid in sorted(geometries, key=repr)
        }
        self.use_index = use_index
        self.early_exit = early_exit
        self.vectorized_prefilter = vectorized_prefilter
        #: The answer as polygons, for the batched scan (None: it holds
        #: other geometries).
        self._polygons: Optional[List[Polygon]] = list(
            self.geometries.values()
        )
        if not all(isinstance(g, Polygon) for g in self._polygons):
            self._polygons = None
        if not use_index:
            self._index = None
        elif index is not None:
            self._index = index
        else:
            self._index = index_for_geometries(self.geometries)

    def matching_objects(
        self, moft: MOFT, stats: Optional[EvaluationStats] = None
    ) -> Set[Hashable]:
        """Return the ids of objects whose interpolated trajectory hits.

        Objects with a single sample are tested by that sampled point.
        Polygon answers are scanned over the table's segment table, one
        kernel call per polygon for all objects; other geometries take
        the per-object walk (:meth:`_object_matches`).
        """
        stats = stats if stats is not None else EvaluationStats()
        stats.incr("scan_rows", len(moft))
        with stats.stage(EvaluationStats.SCAN_STAGE):
            if self._polygons is not None and len(moft):
                return self._matching_polygons(moft, stats)
            matched: Set[Hashable] = set()
            for oid in moft.objects():
                stats.objects_scanned += 1
                if self._object_matches(moft, oid, stats):
                    matched.add(oid)
                    stats.objects_matched += 1
        return matched

    def count(self, moft: MOFT, stats: Optional[EvaluationStats] = None) -> int:
        """Number of matching objects (the aggregation of Section 5)."""
        return len(self.matching_objects(moft, stats))

    def _matching_polygons(
        self, moft: MOFT, stats: EvaluationStats
    ) -> Set[Hashable]:
        """The scan of a polygon answer: all objects at once.

        Tables under ``BATCH_MIN_ROWS`` rows walk the objects the sample
        prefilter left instead, which is cheaper than the kernel calls.
        """
        index = moft.segment_index()
        oids, perm, offsets = index
        _, x, y = moft.as_arrays()
        hit = np.zeros(oids.shape[0], dtype=bool)
        if self.vectorized_prefilter:
            # A sampled point inside a polygon proves the hit.
            inside = points_in_polygons(x, y, self._polygons)
            hit[index.per_row(np.arange(hit.shape[0]))[inside]] = True
            stats.incr("vectorized_accepts", int(hit.sum()))
        if len(moft) < BATCH_MIN_ROWS:
            for i in np.flatnonzero(~hit):
                hit[i] = self._object_matches(moft, oids[i], stats)
        else:
            for batch in moft.segments():
                self._scan_batch(batch, hit, stats)
            for i in np.flatnonzero((np.diff(offsets) == 1) & ~hit):
                row = perm[offsets[i]]
                hit[i] = self._probes_match(
                    [Point(float(x[row]), float(y[row]))], stats
                )
        stats.objects_scanned += hit.shape[0]
        stats.objects_matched += int(hit.sum())
        return set(oids[hit].tolist())

    def _scan_batch(
        self, batch: SegmentBatch, hit: np.ndarray, stats: EvaluationStats
    ) -> None:
        """Mark in ``hit`` the objects a segment of ``batch`` proves.

        ``segment_checks`` counts the (segment, polygon) pairs handed to
        the kernel, ``bbox_rejections`` the pairs the box prefilter
        dropped.  With ``early_exit`` an object leaves the scan at its
        first hit, and every object's first segment goes ahead of the
        rest: an object that starts inside the answer costs one check.
        (Finer rounds would buy nothing: a kernel call costs as much as
        some hundred pairs.)  Without, every pair is visited.
        """
        obj = batch.obj
        live = np.flatnonzero(~hit[obj])
        if self.early_exit:
            # (Index len(batch) is the "first segment" of a trailing
            # single-sample object.)
            first = np.zeros(len(batch) + 1, dtype=bool)
            first[batch.offsets[:-1]] = True
            rounds = [live[first[live]], live[~first[live]]]
        else:
            rounds = [live]
        for pending in rounds:
            for polygon in self._polygons:
                if self.early_exit:
                    pending = pending[~hit[obj[pending]]]
                if not pending.shape[0]:
                    break
                near = batch.near(polygon.bbox, pending)
                stats.bbox_rejections += pending.shape[0] - near.shape[0]
                stats.segment_checks += near.shape[0]
                if near.shape[0]:
                    found = kernels.segments_intersect(
                        polygon, *batch.ends(near)
                    )
                    hit[obj[near[found]]] = True

    def _object_matches(
        self, moft: MOFT, oid: Hashable, stats: EvaluationStats
    ) -> bool:
        """The per-object walk of Section 5: probe by probe, geometry by
        geometry.  The path of non-polygon answers, and the reference
        the batched scan is tested against."""
        history = moft.history(oid)
        if len(history) == 1:
            _, x, y = history[0]
            return self._probes_match([Point(x, y)], stats)
        return self._probes_match(
            [
                Segment(Point(x0, y0), Point(x1, y1))
                for (_, x0, y0), (_, x1, y1) in zip(history, history[1:])
            ],
            stats,
        )

    def _probes_match(
        self, probes: Sequence[object], stats: EvaluationStats
    ) -> bool:
        found = False
        for probe in probes:
            box = geometry_bbox(probe)
            if self._index is not None:
                candidates: Iterable[Hashable] = self._index.query_box(box)
                # Candidate pruning is the indexed path's bbox rejection:
                # everything the grid filtered out never reaches a check.
                stats.bbox_rejections += len(self.geometries) - len(candidates)
            else:
                candidates = self.geometries.keys()
            for gid in candidates:
                geometry = self.geometries[gid]
                if self._index is None and not geometry_bbox(geometry).intersects(
                    box
                ):
                    stats.bbox_rejections += 1
                    continue
                stats.segment_checks += 1
                if geometries_intersect(geometry, probe):
                    found = True
                    break
            if found and self.early_exit:
                return True
        return found


def geometric_subquery(
    context: EvaluationContext,
    target: Tuple[str, str],
    constraints: Sequence[Tuple[str, Tuple[str, str]]],
    obs: Optional[PipelineStats] = None,
) -> Set[Hashable]:
    """Answer a conjunctive geometric query over layer pairs.

    ``target`` is the ``(layer, kind)`` whose element ids are returned;
    each constraint is ``(predicate, (layer, kind))`` and keeps the target
    elements related to *some* element of the other (layer, kind) — e.g.::

        geometric_subquery(
            ctx, ("Lc", "polygon"),
            [("intersects", ("Lr", "polyline")),   # crossed by a river
             ("contains", ("Ls", "node"))],        # containing a store
        )

    This is the id-set pipeline Piet-QL compiles to; whether the pair
    relations come from the precomputed overlay or from fresh geometry
    scans follows the context's ``use_overlay`` flag.  Wall time lands in
    the ``geometric_subquery`` stage of ``obs`` (default: the context's
    observer).
    """
    obs = obs if obs is not None else context.obs
    with obs.stage("geometric_subquery"):
        layer, kind = target
        result: Optional[Set[Hashable]] = None
        for predicate, (other_layer, other_kind) in constraints:
            pairs = context.geometry_pairs(
                layer, kind, predicate, other_layer, other_kind
            )
            ids = {a for a, _ in pairs}
            result = ids if result is None else result & ids
            if not result:
                return set()
        if result is None:
            # No constraints: all elements qualify.
            return set(context.gis.layer(layer).elements(kind))
        return result


def validated_window(
    moft: MOFT, window: Optional[Tuple[float, float]]
) -> Optional[Tuple[float, float]]:
    """Validate a ``[start, end]`` time window against a MOFT.

    Raises :class:`EvaluationError` for a reversed window (``start >
    end``) and for a window with no overlap with the MOFT's instant span
    — both are almost always caller bugs (swapped bounds, wrong time
    unit) that would otherwise silently answer 0.  Returns the window as
    a float pair (None passes through: it means "the whole table").
    """
    if window is None:
        return None
    start, end = float(window[0]), float(window[1])
    if start > end:
        raise EvaluationError(
            f"reversed time window: start {start} is after end {end}"
        )
    if len(moft) == 0:
        raise EvaluationError(
            f"time window [{start}, {end}] cannot overlap MOFT "
            f"{moft.name!r}: the table is empty"
        )
    tmin, tmax = moft.time_range()
    if end < tmin or start > tmax:
        raise EvaluationError(
            f"time window [{start}, {end}] lies outside the MOFT's "
            f"instant span [{tmin}, {tmax}]"
        )
    return (start, end)


def counter_for(
    context: EvaluationContext,
    target: Tuple[str, str],
    ids: Set[Hashable],
    use_index: bool = True,
    early_exit: bool = True,
    vectorized: bool = True,
    stats: Optional[EvaluationStats] = None,
) -> TrajectoryIntersectionCounter:
    """Build the scan counter over one geometric answer (the scan leaf)."""
    layer, kind = target
    elements = context.gis.layer(layer).elements(kind)
    index = (
        context.geometry_index(layer, kind, ids, obs=stats)
        if use_index
        else None
    )
    return TrajectoryIntersectionCounter(
        {gid: elements[gid] for gid in ids},
        use_index=use_index,
        early_exit=early_exit,
        index=index,
        vectorized_prefilter=vectorized,
    )


# ---------------------------------------------------------------------------
# Resolve once, then execute
# ---------------------------------------------------------------------------

@dataclass(repr=False)
class ThroughOperands:
    """The resolved operands of one through-style query
    (:func:`resolve_through` builds them; every front-end plans on and
    executes from them).

    ``store`` is the registered fresh store able to serve the time
    restriction (None: no such store, or none was sought); ``run`` the
    granule run it answers from its cells and ``aligned`` whether that
    run is the whole restriction.  The sliver mask of a misaligned
    window, the restriction mask and the restricted table are each
    computed on first use, at most once — a store-served answer builds
    no table.
    """

    context: EvaluationContext
    target: Tuple[str, str]
    moft: MOFT
    ids: Set[Hashable]
    window: Optional[Tuple[float, float]] = None
    instants: Optional[Set[float]] = None
    store: Optional["PreAggStore"] = None
    run: Optional[Tuple[int, int]] = None
    aligned: bool = True
    #: Stores are registered, one was sought, none can serve.
    store_missed: bool = False
    #: Wall time of the geometric subquery (0.0: the ids were given).
    geosub_seconds: float = 0.0
    #: The table's mutation counter when the operands were resolved.
    version: int = 0

    @property
    def restriction(self) -> Optional[TimeRestriction]:
        """The time restriction (None: the whole table)."""
        if self.window is None and self.instants is None:
            return None
        return (self.window, self.instants)

    @cached_property
    def row_mask(self) -> Optional[np.ndarray]:
        """The time restriction as a row mask (None: the whole table)."""
        if self.restriction is None:
            return None
        t, _, _ = self.moft.as_arrays()
        return restriction_mask(t, *self.restriction)

    @property
    def rows(self) -> int:
        """Rows of the restricted table, without building it."""
        mask = self.row_mask
        return len(self.moft) if mask is None else int(mask.sum())

    @cached_property
    def table(self) -> MOFT:
        """The restricted table (what a scan leaf reads)."""
        mask = self.row_mask
        return self.moft if mask is None else self.moft.mask_rows(mask)

    @cached_property
    def sliver_mask(self) -> Optional[np.ndarray]:
        """Rows the hybrid still has to scan beside the store's answer:
        the window-restricted histories of the objects sampled outside
        the covered run (None: the run covers the restriction)."""
        if self.aligned:
            return None
        return self.store._sliver_scan_mask(*self.window, self.run)

    @property
    def sliver_rows(self) -> int:
        mask = self.sliver_mask
        return 0 if mask is None else int(mask.sum())

    def count(
        self, name: str, stats: Optional[PipelineStats] = None, by: int = 1
    ) -> None:
        """Add to a routing counter on the context observer (and on the
        caller's ``stats``, when that is another object)."""
        self.context.obs.incr(name, by)
        if stats is not None and stats is not self.context.obs:
            stats.incr(name, by)

    def route_first(self, stats: Optional[PipelineStats] = None) -> bool:
        """Route-first, the choice made without pricing: the store when
        one serves (returns True), else the scan.  A registered store
        that could not serve counts a ``preagg_misses``."""
        if self.store is None and self.store_missed:
            self.count("preagg_misses", stats)
        return self.store is not None

    def check_unchanged(self) -> None:
        """Appends since the operands were resolved would make a store
        read or a cached restriction silently wrong: refuse."""
        if self.moft.version != self.version:
            raise EvaluationError(
                f"MOFT {self.moft.name!r} changed after the query was "
                f"resolved; resolve (plan) again"
            )


def _granule_run_of(partition, instants: Set[float]):
    """The granule run whose instants are exactly ``instants``.

    None when the set is empty, names an instant the partition does not
    hold, or cuts through a granule — whole-granule cells would then
    over-count.
    """
    wanted = sorted_instants(instants)
    codes = partition.codes_for(wanted)
    if codes.size == 0 or (codes < 0).any():
        return None
    first, last = int(codes.min()), int(codes.max())
    covered = partition.instants[
        (partition.codes >= first) & (partition.codes <= last)
    ]
    return (first, last) if np.array_equal(wanted, covered) else None


def resolve_through(
    context: EvaluationContext,
    target: Tuple[str, str],
    constraints: Sequence[Tuple[str, Tuple[str, str]]] = (),
    moft_name: str = "FM",
    window: Optional[Tuple[float, float]] = None,
    instants: Optional[Set[float]] = None,
    ids: Optional[Iterable[Hashable]] = None,
    obs: Optional[PipelineStats] = None,
    use_preagg: bool = True,
) -> ThroughOperands:
    """Resolve a through-style query to its operands, once.

    Answers the geometric subquery (unless the caller holds its ``ids``,
    as Piet-QL does), validates the time restriction — none, a ``[start,
    end]`` ``window`` or a DURING ``instants`` set — and, with
    ``use_preagg``, matches a registered store: fresh (nothing refreshes
    behind the caller's back), materializing every id over exactly this
    MOFT, and holding a whole granule of the restriction (an instant set
    must *be* a granule run: it has no sliver to scan).

    The only code that matches a store to a through-style query.  It
    touches no routing counter: those move when the query executes.
    """
    moft = context.moft(moft_name)
    window = validated_window(moft, window)
    seconds = 0.0
    if ids is None:
        started = time.perf_counter()
        ids = geometric_subquery(context, target, constraints, obs=obs)
        seconds = time.perf_counter() - started
    ops = ThroughOperands(
        context, target, moft, set(ids), window, instants,
        geosub_seconds=seconds, version=moft.version,
    )
    if not (use_preagg and ops.ids):
        return ops
    store = context.preagg_for(moft, target[0], target[1], ops.ids)
    if store is not None and not store.is_stale():
        if instants is not None:
            ops.run = _granule_run_of(store.partition, instants)
        elif window is not None:
            ops.run = store.covered_run(*window)
            ops.aligned = ops.run is None or store.is_aligned(*window)
        elif len(store.partition):
            # A fresh store covers the whole table by construction.
            ops.run = (0, len(store.partition) - 1)
    if ops.run is not None:
        ops.store = store
    else:
        ops.store_missed = context.has_preagg
    return ops


@dataclass
class ThroughRun:
    """What one execution produced, and its own figures: ``stats``
    holds the scan counters and stages of this execution alone (a
    fan-out's worker stats included), for the plan-node actuals."""

    matched: Set[Hashable]
    stats: EvaluationStats
    #: Wall seconds of the store's cell read, and of the scan leaf
    #: (fan-out included).
    lookup_seconds: float = 0.0
    scan_seconds: float = 0.0


def execute_through(
    ops: ThroughOperands,
    use_store: bool,
    executor: Optional["ShardedTrajectoryExecutor"] = None,
    n_shards: Optional[int] = None,
    use_index: bool = True,
    early_exit: bool = True,
    vectorized: bool = True,
    stats: Optional[EvaluationStats] = None,
) -> ThroughRun:
    """Execute resolved operands: store read, scan leaf, or both.

    ``use_store`` reads the store over its granule run and scans only
    the sliver of a misaligned window (the hybrid), less the objects the
    store already proves; otherwise the restricted table is scanned.
    Either scan is the one leaf (:meth:`TrajectoryIntersectionCounter
    .matching_objects`; ``use_index`` / ``early_exit`` / ``vectorized``
    are its options), fanned out when ``executor`` is given — which is
    handed the whole table plus the restriction, for its shard tasks to
    apply (:func:`restriction_mask`), so that the table it partitions
    is the same object from query to query.

    ``preagg_hits`` / ``sliver_scan_rows`` go to the context observer
    and ``stats``; the scan's figures to ``stats`` when passed, else to
    the executor's observer when a fan-out ran (it reports there
    itself), else to the context observer — each observer once.
    """
    context = ops.context
    ops.check_unchanged()
    run = ThroughRun(set(), EvaluationStats())
    if not ops.ids:
        return run
    restriction = None
    if use_store:
        started = time.perf_counter()
        run.matched = ops.store.objects_through(ops.ids, *ops.run)
        run.lookup_seconds = time.perf_counter() - started
        context.obs.record("preagg_lookup", run.lookup_seconds)
        ops.count("preagg_hits", stats)
        if ops.sliver_mask is None:
            return run
        sliver = ops.moft.mask_rows(ops.sliver_mask)
        # (A sliver mask selects at least the sliver's own rows.)
        ops.count("sliver_scan_rows", stats, len(sliver))
        # What the store already proves needs no second look.
        table = sliver.restrict_objects(sliver.objects() - run.matched)
    elif executor is not None and ops.restriction is not None:
        # The executor keeps the shards of the table it is handed: give
        # it the one that lasts and let each shard task mask its rows,
        # not a restricted table that is a new object per query.
        table, restriction = ops.moft, ops.restriction
        if not ops.rows:
            return run
    else:
        table = ops.table
    if not len(table):
        return run
    counter = counter_for(
        context, ops.target, ops.ids, use_index, early_exit, vectorized,
        stats,
    )
    started = time.perf_counter()
    if executor is not None:
        run.matched |= executor.matching_objects(
            counter, table, run.stats, n_shards=n_shards,
            restriction=restriction,
        )
    else:
        run.matched |= counter.matching_objects(table, run.stats)
    run.scan_seconds = time.perf_counter() - started
    sink = stats
    if sink is None and executor is None:
        sink = context.obs
    # (A fan-out has already reported into its executor's observer.)
    if sink is not None and sink is not getattr(executor, "obs", None):
        sink.merge(run.stats)
    return run


def objects_through(
    context: EvaluationContext,
    target: Tuple[str, str],
    constraints: Sequence[Tuple[str, Tuple[str, str]]],
    moft_name: str = "FM",
    use_index: bool = True,
    early_exit: bool = True,
    stats: Optional[EvaluationStats] = None,
    vectorized: bool = True,
    executor: Optional["ShardedTrajectoryExecutor"] = None,
    window: Optional[Tuple[float, float]] = None,
    use_preagg: bool = True,
) -> Set[Hashable]:
    """The matched-object set behind :func:`count_objects_through`:
    resolve, choose route-first, execute.

    ``window`` restricts the trajectory scan to samples with ``start <=
    t <= end``.  With ``use_preagg`` (the default) a registered fresh
    :class:`~repro.preagg.PreAggStore` answers the covered granule run
    from its cells and spanning records, and only the misaligned
    *sliver* residue — if any — is scanned (serially or through
    ``executor``).  The hybrid is exact; ``use_preagg=False`` with no
    executor is the plain scan, the oracle of every differential suite.
    """
    ops = resolve_through(
        context, target, constraints, moft_name, window=window, obs=stats,
        use_preagg=use_preagg,
    )
    return execute_through(
        ops, ops.route_first(stats), executor, None,
        use_index, early_exit, vectorized, stats,
    ).matched


def count_objects_through(
    context: EvaluationContext,
    target: Tuple[str, str],
    constraints: Sequence[Tuple[str, Tuple[str, str]]],
    moft_name: str = "FM",
    use_index: bool = True,
    early_exit: bool = True,
    stats: Optional[EvaluationStats] = None,
    vectorized: bool = True,
    executor: Optional["ShardedTrajectoryExecutor"] = None,
    window: Optional[Tuple[float, float]] = None,
    use_preagg: bool = True,
) -> int:
    """The full Section 5 pipeline: geometric subquery then trajectory scan.

    Implements the paper's running example "Total number of cars passing
    through cities crossed by a river, containing at least one store".
    The grid index over the answer geometries is fetched from the
    context's per-id-set cache, so repeated queries over the same answer
    reuse it instead of rebuilding.

    ``executor`` optionally shards the trajectory scan: anything with a
    ``matching_objects(counter, moft, stats, n_shards=None,
    restriction=None)`` method —
    in practice a :class:`repro.parallel.ShardedExecutor` — replaces the
    in-process scan, fanning shards out over its backend.  The
    differential oracle suite (``tests/parallel``) asserts the sharded
    answers equal this serial path.

    ``window`` restricts the count to a time window; ``use_preagg``
    allows routing through a registered pre-aggregation store (see
    :func:`objects_through` for both).
    """
    return len(
        objects_through(
            context,
            target,
            constraints,
            moft_name=moft_name,
            use_index=use_index,
            early_exit=early_exit,
            stats=stats,
            vectorized=vectorized,
            executor=executor,
            window=window,
            use_preagg=use_preagg,
        )
    )


__all__ = [
    "EvaluationStats",
    "ShardedTrajectoryExecutor",
    "ThroughOperands",
    "ThroughRun",
    "TimeRestriction",
    "TrajectoryIntersectionCounter",
    "counter_for",
    "execute_through",
    "geometric_subquery",
    "resolve_through",
    "restriction_mask",
    "validated_window",
    "objects_through",
    "count_objects_through",
]
