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
* an optional columnar prefilter (decided cells, then
  :func:`repro.query.vectorized.pairs_contain`): when every answer
  geometry is a polygon, a sampled point inside a polygon already
  proves the trajectory intersects, so those objects skip the segment
  scan entirely.  The points of decided grid cells are answered by
  their cell's label; only the rest, of objects still unproven, take
  the containment kernel.

When every answer geometry is a polygon the scan is *batched*: the
segments of the objects still pending, read in batches straight off the
table's segment index (:meth:`repro.mo.moft.MOFT.segment_index`), go
through one broad phase per batch over the answer's grid index
(:func:`repro.geometry.index.candidate_pairs`; a segment in cells
decided outside every polygon skips it), and the (polygon,
segment) pairs of all batches through one clip-kernel call per
early-exit round, for all objects and polygons together.  The answer's
:class:`~repro.geometry.kernels.PolygonPass` (edge table, bins, label
grid) comes from :meth:`~repro.query.region.EvaluationContext
.polygon_pass`, built once per answer.  The per-object walk serves the
other geometry kinds, single-sample objects and tables too small to
repay a kernel call; it filters by the grid index probe by probe.  A
time restriction is a row mask: the scan reads the table's index under
it (:meth:`~repro.mo.moft.SegmentIndex.masked`), with no restricted
table built.

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
    Iterator,
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
from repro.geometry.index import (
    UniformGridIndex, candidate_pairs, index_for_geometries,
)
from repro.geometry.overlay import geometries_intersect, geometry_bbox
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.segment import Segment
from repro.mo import moft as moft_module
from repro.mo.moft import (
    MOFT,
    SegmentBatch,
    SegmentIndex,
    instants_member_mask,
    sorted_instants,
)
from repro.obs import EvaluationStats, PipelineStats
from repro.query.region import EvaluationContext
from repro.query.vectorized import _contained

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.preagg.store import PreAggStore

#: Below this many rows the per-object walk beats the batched scan: a
#: kernel call costs about as much as walking a dozen segments.
BATCH_MIN_ROWS = 64

#: A time restriction as ``(window, instants)``: a closed ``[start,
#: end]`` window or a DURING instant set (the set wins when both are
#: given) — the arguments of :func:`restriction_mask` after the table.
TimeRestriction = Tuple[Optional[Tuple[float, float]], Optional[Set[float]]]


def restriction_mask(
    moft: MOFT,
    window: Optional[Tuple[float, float]] = None,
    instants: Optional[Set[float]] = None,
) -> np.ndarray:
    """The rows of ``moft`` a time restriction keeps.

    The one definition of "restricted to": :attr:`ThroughOperands
    .row_mask` applies it to the whole table and every shard task of a
    fanned-out scan to its own shard, so the two cannot disagree on an
    instant.  An instant set is decided once per distinct instant of the
    table and gathered by each row's instant code
    (:meth:`~repro.mo.moft.MOFT.instants_mask`, the ulp-tolerant test of
    :func:`~repro.mo.moft.instants_member_mask`, as ``COUNT SAMPLES``
    restricts); a window compares the instant column with its bounds.
    """
    if instants is not None:
        return moft.instants_mask(instants)
    t, _, _ = moft.as_arrays()
    return (t >= window[0]) & (t <= window[1])


class ShardedTrajectoryExecutor(Protocol):
    """What :func:`execute_through` needs from a parallel executor."""

    def matching_objects(
        self,
        counter: "TrajectoryIntersectionCounter",
        moft: MOFT,
        stats: Optional["EvaluationStats"] = None,
        restriction: Optional[TimeRestriction] = None,
    ) -> Set[Hashable]:
        """Return the matched object ids, merged exactly across the
        executor's own shards (``restriction``: scan only the rows of
        ``moft`` it keeps)."""
        ...


def _segments_of(
    moft: MOFT, index: SegmentIndex, objects, skip: int, take: Optional[int]
) -> Iterator[SegmentBatch]:
    """The segments of ``objects`` (positions in ``index``, the table's
    segment index or what a row mask keeps of it), each object's first
    ``skip`` left out and at most ``take`` kept, in (object, time) order:
    batches of at most ``SEGMENT_BATCH_ROWS`` segments (at least one
    object), gathered straight off the index, only the rows they join."""
    _, perm, offsets = index
    _, x, y = moft.as_arrays()
    first = offsets[objects] + skip
    count = offsets[objects + 1] - 1 - first
    if take is not None:
        count = np.minimum(count, take)
    keep = count > 0
    objects, first, count = objects[keep], first[keep], count[keep]
    end = np.cumsum(count)
    lo = 0
    while lo < objects.shape[0]:
        base = int(end[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(
            end, base + moft_module.SEGMENT_BATCH_ROWS, "right"
        )))
        n = count[lo:hi]
        at = np.repeat(first[lo:hi] - (end[lo:hi] - n - base), n)
        at += np.arange(int(end[hi - 1]) - base)
        a, b = perm[at], perm[at + 1]
        yield SegmentBatch(
            None, None, x[a], y[a], x[b], y[b], np.repeat(objects[lo:hi], n)
        )
        lo = hi


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
        per-object walk; the batched scan always bins through a grid).
    early_exit:
        Stop scanning an object's trajectory at the first hit (batched:
        the object leaves the scan before the next kernel call).
    index:
        A prebuilt :class:`UniformGridIndex` over exactly these
        geometries (e.g. from ``EvaluationContext.geometry_index``);
        ignored when ``use_index`` is False.
    polygons:
        A prebuilt :class:`~repro.geometry.kernels.PolygonPass` over
        exactly these geometries in id order (from
        ``EvaluationContext.polygon_pass``); its grid index serves as
        ``index``.  Default: built here when every geometry is a
        polygon; with the prefilter on, its decided-cell grid is built
        here.  A shard task gets the grid with the counter and rebuilds
        only the cheap rest (the pickle carries geometries, not arrays
        derived from them).
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
        polygons: Optional["kernels.PolygonPass"] = None,
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
        if polygons is not None:
            index = polygons.index
        if not use_index:
            self._index = None
        elif index is not None:
            self._index = index
        else:
            self._index = index_for_geometries(self.geometries)
        #: The batched scan's pass (None: not a polygon answer).
        self._pass = None
        if self._polygons is not None:
            self._pass = polygons or kernels.PolygonPass.of(
                self.geometries, self._index
            )
            if vectorized_prefilter:
                # The prefilter reads every sample of the table.
                self._pass.label()

    def __getstate__(self) -> dict:
        # A shard task rebuilds the pass's edge table and bins from the
        # geometries, as a scan used to; the label grid travels.
        state = dict(vars(self))
        if state.pop("_pass") is not None and self._pass.labels is not None:
            state["_labels"] = self._pass.labels
        return state

    def __setstate__(self, state: dict) -> None:
        labels = state.pop("_labels", None)
        self.__dict__.update(state)
        self._pass = None
        if self._polygons is not None:
            self._pass = kernels.PolygonPass.of(
                self.geometries, self._index, labels
            )

    def matching_objects(
        self, moft: MOFT, stats: Optional[EvaluationStats] = None,
        rows: Optional[np.ndarray] = None,
    ) -> Set[Hashable]:
        """Return the ids of objects whose interpolated trajectory hits,
        over the rows the row mask ``rows`` keeps (default: all), read
        through :meth:`~repro.mo.moft.SegmentIndex.masked`: the answer
        and counts of a scan of ``moft.mask_rows(rows)``.

        Polygon answers take the sample prefilter, then the scan over
        the segment table, for all objects and polygons at once; the
        per-object walk (:meth:`_object_matches`) takes what is left:
        single-sample objects (tested by that sampled point), other
        geometries, and every object under ``BATCH_MIN_ROWS`` rows,
        where it is cheaper than the kernel calls.
        """
        stats = stats if stats is not None else EvaluationStats()
        index = moft.segment_index()
        index = index if rows is None else index.masked(rows)
        n_rows, sizes = index.perm.shape[0], np.diff(index.offsets)
        stats.incr("scan_rows", n_rows)
        with stats.stage(EvaluationStats.SCAN_STAGE):
            hit = np.zeros(sizes.shape[0], dtype=bool)
            polygons = self._polygons is not None and n_rows > 0
            if polygons and self.vectorized_prefilter:
                self._prove_by_samples(moft, rows, hit, stats)
                stats.incr("vectorized_accepts", int(hit.sum()))
            batched = polygons and n_rows >= BATCH_MIN_ROWS
            if batched:
                self._scan_segments(moft, index, hit, stats)
            walk = (sizes == 1) if batched else (sizes > 0)
            self._walk(moft, index, np.flatnonzero(walk & ~hit), hit, stats)
            stats.incr("objects_scanned", int(np.count_nonzero(sizes)))
            stats.incr("objects_matched", int(hit.sum()))
        return set(index.oids[hit].tolist())

    def count(self, moft: MOFT, stats: Optional[EvaluationStats] = None) -> int:
        """Number of matching objects (the aggregation of Section 5)."""
        return len(self.matching_objects(moft, stats))

    def _prove_by_samples(
        self, moft: MOFT, rows: Optional[np.ndarray], hit: np.ndarray,
        stats: EvaluationStats,
    ) -> None:
        """The sample prefilter: a sample (of ``rows``) inside a polygon
        proves its object.  A label pass first, ``SEGMENT_BATCH_ROWS``
        samples a gather; then only the ``MIXED`` samples (all, without
        a label grid) of objects still unproven take the containment
        kernel."""
        _, x, y = moft.as_arrays()
        owner, step = moft.object_codes(), moft_module.SEGMENT_BATCH_ROWS
        kept = None if rows is None else np.flatnonzero(rows)
        n = len(moft) if kept is None else kept.shape[0]
        labels = self._pass.labels_for(n)
        undecided: List[np.ndarray] = []
        for lo in range(0, n, step):
            at = slice(lo, lo + step) if kept is None else kept[lo:lo + step]
            label = (np.full(x[at].shape, kernels.MIXED) if labels is None
                     else labels.of(x[at], y[at]))
            hit[owner[at][label >= 0]] = True
            mixed = np.flatnonzero(label == kernels.MIXED)
            undecided.append(mixed + lo if kept is None else at[mixed])
        undecided = np.concatenate(undecided)
        stats.incr("cell_decided_points", n - undecided.shape[0])
        for lo in range(0, undecided.shape[0], step):
            some = undecided[lo:lo + step]
            some = some[~hit[owner[some]]]
            if some.shape[0]:
                _, at = _contained(self._pass, x[some], y[some])
                hit[owner[some[at]]] = True

    def _scan_segments(
        self, moft: MOFT, index: SegmentIndex, hit: np.ndarray,
        stats: EvaluationStats,
    ) -> None:
        """Mark in ``hit`` the objects a segment of ``index`` proves.

        A round is a broad phase over its pending segments and one
        kernel call on the (polygon, segment) pairs, made again only
        when the pairs gathered reach ``SEGMENT_BATCH_ROWS``:
        ``segment_checks`` counts those pairs and ``bbox_rejections``
        the rest of pending segments x polygons; the kernel counts into
        ``stats`` too; a segment whose box maps only to ``OUTSIDE``
        cells of the label grid (once built) meets no polygon and counts
        its rejections before the broad phase.  With ``early_exit`` an
        object leaves the scan at its first hit, and every object's
        first segment goes ahead of the rest, in a round of its own: an
        object that starts inside the answer costs one round-one pair
        per polygon its first segment's box meets.  The second round
        visits the remaining segments of the objects still pending.
        Without ``early_exit`` there is one round over every segment.  A
        round reads only the segments it visits (:func:`_segments_of`),
        never those of an object already proven.
        """
        # (skip, take): each object's first segment, then the rest.
        rounds = [(0, 1), (1, None)] if self.early_exit else [(0, None)]
        width = len(self._polygons)
        labels = self._pass.labels_for(0)  # (the prefilter's, if built)
        for skip, take in rounds:
            pairs: List[Tuple[np.ndarray, ...]] = []
            size = 0
            for batch in _segments_of(moft, index, np.flatnonzero(~hit), skip, take):
                boxes, near = batch.boxes(), None
                if labels is not None:
                    near = np.flatnonzero(~labels.outside(*boxes))
                    boxes = batch.boxes(near)
                pos, at = candidate_pairs(self._pass.bins, *boxes)
                if near is not None:
                    at = near[at]
                stats.incr("bbox_rejections", len(batch) * width - pos.shape[0])
                stats.incr("segment_checks", pos.shape[0])
                if not pos.shape[0]:
                    continue
                pairs.append((pos, batch.obj[at], *batch.ends(at)))
                size += pos.shape[0]
                if size >= moft_module.SEGMENT_BATCH_ROWS:
                    self._intersect(pairs, hit, stats)
                    pairs, size = [], 0
            self._intersect(pairs, hit, stats)

    def _intersect(
        self, pairs: List[Tuple[np.ndarray, ...]], hit: np.ndarray,
        stats: EvaluationStats,
    ) -> None:
        """One kernel call on gathered ``(position, object, x0, y0, x1,
        y1)`` pairs; the objects of those that meet their polygon hit."""
        if not pairs:
            return
        pos, obj, *ends = map(np.concatenate, zip(*pairs))
        found = kernels.pairs_intersect(self._pass.edges, pos, *ends, obs=stats)
        hit[obj[found]] = True

    def _walk(self, moft, index: SegmentIndex, objects, hit, stats) -> None:
        """:meth:`_object_matches` of ``objects`` (positions in ``index``)
        over their rows in ``index``."""
        _, perm, offsets = index
        _, x, y = moft.as_arrays()
        for i in objects:
            at = perm[offsets[i]:offsets[i + 1]]
            hit[i] = self._path_matches(x[at].tolist(), y[at].tolist(), stats)

    def _object_matches(
        self, moft: MOFT, oid: Hashable, stats: EvaluationStats
    ) -> bool:
        """The per-object walk of Section 5: probe by probe, geometry by
        geometry.  The path of non-polygon answers, and the reference
        the batched scan is tested against."""
        _, x, y = zip(*moft.history(oid))
        return self._path_matches(x, y, stats)

    def _path_matches(self, x: Sequence[float], y: Sequence[float], stats) -> bool:
        """Whether the points ``(x, y)`` (in time order) meet a
        geometry: the one point, or the segments between them."""
        if len(x) == 1:
            return self._probes_match([Point(x[0], y[0])], stats)
        return self._probes_match(
            [
                Segment(Point(x0, y0), Point(x1, y1))
                for x0, y0, x1, y1 in zip(x, y, x[1:], y[1:])
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
                stats.incr(
                    "bbox_rejections", len(self.geometries) - len(candidates)
                )
            else:
                candidates = self.geometries.keys()
            for gid in candidates:
                geometry = self.geometries[gid]
                if self._index is None and not geometry_bbox(geometry).intersects(
                    box
                ):
                    stats.incr("bbox_rejections")
                    continue
                stats.incr("segment_checks")
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
    """Build the scan counter over one geometric answer (the scan leaf):
    with the answer's cached grid index and, for a polygon answer, its
    cached :class:`~repro.geometry.kernels.PolygonPass` — without
    ``use_index`` too, whose batched scan bins through that same pass
    (only its per-object walk goes without the index)."""
    layer, kind = target
    elements = context.gis.layer(layer).elements(kind)
    geometries = {gid: elements[gid] for gid in ids}
    index = polygons = None
    if all(isinstance(g, Polygon) for g in geometries.values()):
        polygons = context.polygon_pass(layer, kind, ids, obs=stats)
    elif use_index:
        index = context.geometry_index(layer, kind, ids, obs=stats)
    return TrajectoryIntersectionCounter(
        geometries,
        use_index=use_index,
        early_exit=early_exit,
        index=index,
        vectorized_prefilter=vectorized,
        polygons=polygons,
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
    window and the restriction mask are each computed on first use, at
    most once; a scan leaf reads the table under them, so nothing
    builds a restricted table.
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
        return restriction_mask(self.moft, *self.restriction)

    @property
    def rows(self) -> int:
        """Rows of the restricted table, without building it: the
        restriction applied to the table's distinct instants, each
        weighed by its row count."""
        if self.restriction is None:
            return len(self.moft)
        instants, counts = self.moft.instant_counts()
        if self.instants is not None:
            kept = instants_member_mask(instants, sorted_instants(self.instants))
        else:
            kept = (instants >= self.window[0]) & (instants <= self.window[1])
        return int(counts[kept].sum())

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
    use_index: bool = True,
    early_exit: bool = True,
    vectorized: bool = True,
    stats: Optional[EvaluationStats] = None,
) -> ThroughRun:
    """Execute resolved operands: store read, scan leaf, or both.

    ``use_store`` reads the store over its granule run and scans only
    the sliver of a misaligned window (the hybrid), less the objects the
    store already proves; otherwise the table is scanned under the
    restriction.  Either scan is the one leaf
    (:meth:`TrajectoryIntersectionCounter.matching_objects` under a row
    mask; ``use_index`` / ``early_exit`` / ``vectorized`` are its
    options), fanned out when ``executor`` is given — which is handed
    the whole table plus the restriction, for its shard tasks to apply
    (:func:`restriction_mask`), so that the table it partitions is the
    same object from query to query.

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
    moft, rows, restriction = ops.moft, None, None
    if use_store:
        started = time.perf_counter()
        run.matched = ops.store.objects_through(ops.ids, *ops.run)
        run.lookup_seconds = time.perf_counter() - started
        context.obs.record("preagg_lookup", run.lookup_seconds)
        ops.count("preagg_hits", stats)
        if ops.sliver_mask is None:
            return run
        # (A sliver mask selects at least the sliver's own rows.)
        ops.count("sliver_scan_rows", stats, ops.sliver_rows)
        # What the store already proves needs no second look.
        proven = np.zeros(moft.oids.shape[0], dtype=bool)
        proven[[moft.object_code(oid) for oid in run.matched]] = True
        rows = ops.sliver_mask & ~proven[moft.object_codes()]
        if not rows.any():
            return run
        if executor is not None:
            moft, rows = moft.mask_rows(rows), None
    elif not ops.rows:
        return run
    elif executor is not None:
        # The executor keeps the shards of the table it is handed: give
        # it the one that lasts and let each shard task mask its rows,
        # not a restricted table that is a new object per query.
        restriction = ops.restriction
    else:
        rows = ops.row_mask
    counter = counter_for(
        context, ops.target, ops.ids, use_index, early_exit, vectorized,
        stats,
    )
    started = time.perf_counter()
    if executor is not None:
        run.matched |= executor.matching_objects(
            counter, moft, run.stats, restriction=restriction
        )
    else:
        run.matched |= counter.matching_objects(moft, run.stats, rows=rows)
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
        ops, ops.route_first(stats), executor,
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
    ``matching_objects(counter, moft, stats, restriction=None)`` method —
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
