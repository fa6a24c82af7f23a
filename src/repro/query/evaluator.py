"""Query evaluation strategies — Section 5 of the paper.

The paper sketches the Piet pipeline: (1) answer the geometric subquery
against the *precomputed overlay*, yielding geometry ids; (2) intersect
trajectory segments with those geometries — "for each object, and for each
consecutive pair of points in the moving objects fact table, [check] if the
intersection between the segment defined by these two points and a city in
the answer ... is not empty.  If so, it counts for the aggregation.  In
the worst case, the whole trajectory must be checked."

:class:`TrajectoryIntersectionCounter` implements step (2).  It stops
scanning an object at its first hit (the paper's "if so, it counts"),
and tests a segment only against the geometries whose boxes meet its
box (counted as ``bbox_rejections``).  Its shape is a function of the
strategy that runs it.  ``serial`` is the reference: every probe of the
per-object walk against every geometry's box, no prefilter.  Every other
strategy also filters candidates through the answer's grid
(:class:`~repro.geometry.index.Grid`, built in place or borrowed from
:meth:`~repro.query.region.EvaluationContext.geometry_index`) and, when
every answer geometry is a polygon, runs a columnar prefilter first
(decided cells, then :func:`repro.query.vectorized.pairs_contain`): a
sampled point inside a polygon already proves the trajectory
intersects, so those objects skip the segment scan entirely.  The
points of decided grid cells are answered by their cell's label; only
the rest, of objects still unproven, take the containment kernel.

When every answer geometry is a polygon the scan is *batched*: the
segments of the objects still pending, read in batches straight off the
table's segment index (:meth:`repro.mo.moft.MOFT.segment_index`), go
through one broad phase per batch over the answer's grid
(:func:`repro.geometry.index.candidate_pairs`; a segment in cells
decided outside every polygon skips it), and the (polygon,
segment) pairs of all batches through one clip-kernel call per
early-exit round, for all objects and polygons together.  The answer's
:class:`~repro.geometry.kernels.PolygonPass` (edge table, grid, label
grid) comes from :meth:`~repro.query.region.EvaluationContext
.geometry_index`, built once per answer.  The per-object walk serves the
other geometry kinds, single-sample objects and tables too small to
repay a kernel call; one broad phase over the grid gives every probe of
a walk its candidates, which it visits in id order.  A
time restriction is a row mask: the scan reads the table's index under
it (:meth:`~repro.mo.moft.SegmentIndex.masked`), with no restricted
table built.

That scan is the *leaf* of the one aggregate path, which also lives
here, for every kind of leaf (``through``, ``dwell`` and the POI
measures): a resolve step builds one :class:`Leaf` —
:func:`resolve_through` from a geometric subquery or given ids, with a
time restriction; :func:`repro.query.poi.resolve_poi` from a POI layer —
both ending in one store match (:func:`match_store`), and each
resolving a spec once per state of what it read
(:meth:`~repro.query.region.EvaluationContext.prepared`).  The planner
(:func:`repro.query.planner.plan`) prices the leaf, or a front-end that
does not price it forces :func:`store_or_scan`, and the one
:func:`execute` runs it: store read, scan leaf, the leaf fanned out, or
store answer plus sliver scan, into one :class:`Run` record.  The
function API below, the dwell aggregate, the POI functions, the planner,
Piet-QL and the service all take that path.

Instrumentation is the :mod:`repro.obs` vocabulary —
:class:`~repro.obs.EvaluationStats` is re-exported here for
compatibility.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import EvaluationError, ShardMissing
from repro.geometry import kernels
from repro.geometry.index import Grid, candidate_pairs
from repro.geometry.overlay import geometries_intersect, geometry_bbox
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.segment import Segment
from repro.gis.layer import AnswerKey, Layer
from repro.mo import moft as moft_module
from repro.mo.moft import (
    MOFT,
    ObjectSet,
    SegmentBatch,
    SegmentIndex,
    instants_member_mask,
    sorted_instants,
)
from repro.obs import EvaluationStats, PipelineStats
from repro.poi.store import PoiVisitStore
from repro.query.region import EvaluationContext
from repro.query.vectorized import _contained

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cellstore import GranuleStore

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

    The one definition of "restricted to": :attr:`Leaf.row_mask`
    applies it to the whole table and every shard task of a
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
    """What :func:`execute` needs from a parallel executor."""

    def matching_objects(
        self,
        counter: "TrajectoryIntersectionCounter",
        moft: MOFT,
        stats: Optional["EvaluationStats"] = None,
        restriction: Optional[TimeRestriction] = None,
    ) -> ObjectSet:
        """Return the matched objects as codes into ``moft``, merged
        exactly across the executor's own shards (``restriction``: scan
        only the rows of ``moft`` it keeps)."""
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
    strategy:
        The strategy the scan runs under, which fixes its shape:
        ``serial`` walks every probe past every geometry's box with no
        prefilter; any other strategy filters the walk's candidates
        through the answer's grid and, when every geometry is a polygon,
        first accepts the objects with a sampled point inside some
        polygon (sound because a segment endpoint inside a closed
        polygon intersects it: the result set is the same, only the
        operation counts differ).  The batched scan of a polygon answer
        always reads the pass's grid.
    index:
        The answer's prebuilt index over exactly these geometries in id
        order (from ``EvaluationContext.geometry_index``): a
        :class:`~repro.geometry.kernels.PolygonPass` when every geometry
        is a polygon, else a :class:`~repro.geometry.index.Grid`.
        Default: built here (a grid only when the walk reads it).  The
        prefilter builds the pass's decided-cell grid when the rows it
        reads pay for one, unless :func:`counter_for` built it first.
    key:
        What names the answer in its layer's cache
        (:meth:`repro.gis.layer.Layer.key`; None: bare geometries).  A
        keyed counter travels to a shard task as its key alone, and the
        task's process takes geometries and index from its own copy of
        the layer (:meth:`~repro.gis.layer.Layer.answer`); one that holds
        no such layer raises :class:`~repro.errors.ShardMissing`, and the
        re-sent task carries the geometries (:meth:`carrying`).
    """

    def __init__(
        self,
        geometries: Dict[Hashable, object],
        strategy: str = "grid",
        index: Union["kernels.PolygonPass", Grid, None] = None,
        key: Optional[AnswerKey] = None,
    ) -> None:
        if not geometries:
            raise EvaluationError("no geometries to intersect against")
        #: In id order, not the answer set's hash order, so the
        #: early-exit counts (of the batched scan and of the walks alike)
        #: repeat from run to run; position ``p`` of every array is the
        #: ``p``-th.
        self.geometries = {
            gid: geometries[gid] for gid in sorted(geometries, key=repr)
        }
        self.strategy = strategy
        self.key = key
        #: Whether a pickle carries the geometries besides the key.
        self._carry = key is None
        #: What an unpickled keyed counter still has to find (see
        #: :meth:`_arrive`; None: nothing).
        self._travelled: Optional[dict] = None
        #: The batched scan's pass (None: not a polygon answer).
        self._pass = None
        if all(isinstance(g, Polygon) for g in self.geometries.values()):
            if index is None:
                index = kernels.PolygonPass.of(self.geometries)
            self._pass = index
            index = self._pass.grid
        #: The walk's broad phase (None: the ``serial`` reference tests
        #: every geometry's box).
        self._grid = None
        if strategy != "serial":
            self._grid = index if index is not None else Grid.of(self.geometries)

    @property
    def _prefilter(self) -> bool:
        """Whether the sample prefilter runs (a polygon answer, and not
        the ``serial`` reference)."""
        return self._pass is not None and self.strategy != "serial"

    def __getstate__(self) -> dict:
        # The decided cells are a function of the polygons, so whether
        # the pass has them is all a task needs to decide alike.
        passes = self._pass
        return {
            "key": self.key,
            "strategy": self.strategy,
            "geometries": self.geometries if self._carry else None,
            "labelled": passes is not None and passes.labels is not None,
        }

    def __setstate__(self, state: dict) -> None:
        if state["key"] is None:
            self.__init__(state["geometries"], state["strategy"])
        else:
            # Found at the first scan, which may raise ShardMissing.
            self.key, self._travelled = state["key"], state

    def carrying(self) -> "TrajectoryIntersectionCounter":
        """A copy whose pickle carries the geometries as well as the
        key: what a shard task is re-sent with when its process lacked
        the layer."""
        out = object.__new__(type(self))
        out.__dict__.update(vars(self), _carry=True)
        return out

    def _arrive(self, stats: EvaluationStats) -> None:
        """Take the geometries and index of an unpickled keyed counter
        from the layer its key names here, adopting the geometries it
        carried (:meth:`repro.gis.layer.Layer.answer`).  Counted as
        ``pass_cache_hits`` (the process held them) or
        ``pass_cache_misses`` (a re-sent task brought them); raises
        :class:`~repro.errors.ShardMissing` when neither."""
        state = self._travelled
        found = Layer.answer(self.key, state["geometries"])
        if found is None:
            raise ShardMissing(self.key)
        stats.incr(
            "pass_cache_hits" if state["geometries"] is None
            else "pass_cache_misses"
        )
        geometries, index = found
        self.__init__(geometries, state["strategy"], index, self.key)
        if state["labelled"] and self._pass is not None:
            self._pass.labels_for(kernels._LABEL_MIN_POINTS)

    def matching_objects(
        self, moft: MOFT, stats: Optional[EvaluationStats] = None,
        rows: Optional[np.ndarray] = None,
    ) -> ObjectSet:
        """Return the objects whose interpolated trajectory hits, as
        codes into ``moft``, over the rows the row mask ``rows`` keeps
        (default: all), read through :meth:`~repro.mo.moft.SegmentIndex
        .masked` (which keeps every object, so its positions are the
        table's codes): the answer and counts of a scan of
        ``moft.mask_rows(rows)``.

        Polygon answers take the sample prefilter, then the scan over
        the segment table, for all objects and polygons at once; the
        per-object walk (:meth:`_object_matches`) takes what is left:
        single-sample objects (tested by that sampled point), other
        geometries, and every object under ``BATCH_MIN_ROWS`` rows,
        where it is cheaper than the kernel calls.
        """
        stats = stats if stats is not None else EvaluationStats()
        if self._travelled is not None:
            self._arrive(stats)
        index = moft.segment_index()
        if rows is not None:
            index = index.masked(rows)
        return self._matching(moft, index, rows, stats)

    def _matching(
        self, moft: MOFT, index: SegmentIndex, rows: Optional[np.ndarray],
        stats: Optional[EvaluationStats],
    ) -> ObjectSet:
        """:meth:`matching_objects` over ``index``, the table's segment
        index under the row mask ``rows`` — which a caller that scans
        the same rows again keeps (the hybrid's sliver)."""
        stats = stats if stats is not None else EvaluationStats()
        n_rows, sizes = index.perm.shape[0], np.diff(index.offsets)
        stats.incr("scan_rows", n_rows)
        with stats.stage(EvaluationStats.SCAN_STAGE):
            hit = np.zeros(sizes.shape[0], dtype=bool)
            polygons = self._pass is not None and n_rows > 0
            if polygons and self._prefilter:
                self._prove_by_samples(moft, rows, hit, stats)
                stats.incr("vectorized_accepts", int(hit.sum()))
            batched = polygons and n_rows >= BATCH_MIN_ROWS
            if batched:
                self._scan_segments(moft, index, hit, stats)
            walk = (sizes == 1) if batched else (sizes > 0)
            self._walk(moft, index, np.flatnonzero(walk & ~hit), hit, stats)
            stats.incr("objects_scanned", int(np.count_nonzero(sizes)))
            stats.incr("objects_matched", int(hit.sum()))
        return moft.object_set(np.flatnonzero(hit))

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
        its rejections before the broad phase.  An object leaves the
        scan at its first hit, and every object's first segment goes
        ahead of the rest, in a round of its own: an object that starts
        inside the answer costs one round-one pair per polygon its first
        segment's box meets.  The second round visits the remaining
        segments of the objects still pending.  A round reads only the
        segments it visits (:func:`_segments_of`), never those of an
        object already proven.
        """
        width = len(self.geometries)
        labels = self._pass.labels_for(0)  # (the prefilter's, if built)
        # (skip, take): each object's first segment, then the rest.
        for skip, take in ((0, 1), (1, None)):
            pairs: List[Tuple[np.ndarray, ...]] = []
            size = 0
            for batch in _segments_of(moft, index, np.flatnonzero(~hit), skip, take):
                boxes, near = batch.boxes(), None
                if labels is not None:
                    near = np.flatnonzero(~labels.outside(*boxes))
                    boxes = batch.boxes(near)
                pos, at = candidate_pairs(self._pass.grid, *boxes)
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
        """:meth:`_paths_match` of ``objects`` (positions in ``index``)
        over their rows in ``index``."""
        if not objects.shape[0]:
            return
        _, perm, offsets = index
        _, x, y = moft.as_arrays()
        first = offsets[objects]
        count = offsets[objects + 1] - first
        starts = np.concatenate(([0], np.cumsum(count)))
        rows = perm[np.arange(starts[-1]) + np.repeat(first - starts[:-1], count)]
        hit[objects] = self._paths_match(x[rows], y[rows], starts, stats)

    def _object_matches(
        self, moft: MOFT, oid: Hashable, stats: EvaluationStats
    ) -> bool:
        """The per-object walk of Section 5: probe by probe, geometry by
        geometry.  The path of non-polygon answers, and the reference
        the batched scan is tested against."""
        _, x, y = map(np.array, zip(*moft.history(oid)))
        return bool(self._paths_match(x, y, np.array([0, x.shape[0]]), stats)[0])

    def _paths_match(
        self, x: np.ndarray, y: np.ndarray, starts: np.ndarray, stats
    ) -> np.ndarray:
        """Whether each path, the points ``(x, y)[starts[i]:starts[i +
        1]]`` in time order, meets a geometry: its one point, or the
        segments between its points (its *probes*), probe by probe and
        geometry by geometry in position order, up to the first hit.

        The ``serial`` reference tests each geometry's box against the
        probe's; the others take every probe's candidates from one
        broad phase over the walk (:func:`candidate_pairs` on the grid).
        Both count alike: ``segment_checks`` per exact test, and
        ``bbox_rejections`` per box missed, over a probe's geometries
        up to its hit.
        """
        size = np.diff(starts)
        # Every point but the last of a path of several starts a probe;
        # a path of one point is one probe, the point itself.
        head = np.ones(x.shape[0], dtype=bool)
        head[starts[1:][size > 1] - 1] = False
        a = np.flatnonzero(head)
        b = a + (np.repeat(size, size)[a] > 1)
        probe_starts = np.concatenate(([0], np.cumsum(np.maximum(size - 1, 1))))
        x0, y0, x1, y1 = x[a], y[a], x[b], y[b]
        if self._grid is not None:
            pos, at = candidate_pairs(
                self._grid, np.minimum(x0, x1), np.minimum(y0, y1),
                np.maximum(x0, x1), np.maximum(y0, y1),
            )
            order = np.argsort(at, kind="stable")
            cut = np.searchsorted(at[order], np.arange(a.shape[0] + 1))
            candidates = pos[order].tolist()
            cut = cut.tolist()
        geometries = list(self.geometries.values())
        x0, y0, x1, y1 = x0.tolist(), y0.tolist(), x1.tolist(), y1.tolist()
        single = (a == b).tolist()
        matched = np.zeros(size.shape[0], dtype=bool)
        for i, (lo, hi) in enumerate(zip(probe_starts[:-1].tolist(),
                                         probe_starts[1:].tolist())):
            for j in range(lo, hi):
                start = Point(x0[j], y0[j])
                probe = start if single[j] else Segment(
                    start, Point(x1[j], y1[j])
                )
                if self._grid is None:
                    found = self._probe_matches(probe, geometries, stats)
                else:
                    found = self._candidates_match(
                        probe, geometries, candidates[cut[j]:cut[j + 1]],
                        stats,
                    )
                if found:
                    matched[i] = True
                    break
        return matched

    @staticmethod
    def _probe_matches(probe, geometries, stats) -> bool:
        """The ``serial`` reference: every geometry's box, in order."""
        box = geometry_bbox(probe)
        for geometry in geometries:
            if not geometry_bbox(geometry).intersects(box):
                stats.incr("bbox_rejections")
                continue
            stats.incr("segment_checks")
            if geometries_intersect(geometry, probe):
                return True
        return False

    @staticmethod
    def _candidates_match(probe, geometries, candidates, stats) -> bool:
        """The broad phase's ``candidates`` (positions, ascending) of a
        probe, counted as :meth:`_probe_matches` counts: the positions
        ahead of a hit that are not candidates are its rejections."""
        for k, p in enumerate(candidates):
            stats.incr("segment_checks")
            if geometries_intersect(geometries[p], probe):
                stats.incr("bbox_rejections", p - k)
                return True
        stats.incr("bbox_rejections", len(geometries) - len(candidates))
        return False


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
    strategy: str,
    stats: Optional[EvaluationStats] = None,
    *,
    rows: int,
) -> TrajectoryIntersectionCounter:
    """Build the scan counter over one geometric answer (the scan leaf)
    in the shape of ``strategy``, with the answer's kept index
    (:meth:`~repro.query.region.EvaluationContext.geometry_index`) —
    under ``serial`` too for a polygon answer, whose batched scan reads
    that same pass (only its per-object walk goes without the grid) —
    and the answer's key in its layer, which is all a shard task is
    sent.

    With the sample prefilter, the pass's decided-cell grid is built
    here when the ``rows`` of the table the scan reads pay for one
    (:meth:`~repro.geometry.kernels.PolygonPass.labels_for`), so that
    every shard task decides the same cells."""
    layer, kind = target
    source = context.gis.layer(layer)
    elements = source.elements(kind)
    geometries = {gid: elements[gid] for gid in ids}
    index = None
    if strategy != "serial" or all(
        isinstance(g, Polygon) for g in geometries.values()
    ):
        index = context.geometry_index(layer, kind, ids, obs=stats)
    counter = TrajectoryIntersectionCounter(
        geometries, strategy, index, source.key(kind, ids)
    )
    if counter._prefilter:
        counter._pass.labels_for(rows)
    return counter


# ---------------------------------------------------------------------------
# The leaf: resolve once, plan, execute
# ---------------------------------------------------------------------------

#: Every strategy a leaf can be executed under.
STRATEGIES = ("serial", "grid", "sharded", "preagg")

#: Each kind of leaf and the strategies it runs under: ``through``
#: collects the objects passing through answer geometries, ``dwell``
#: sums the time spent inside them (the store or the scan), and each
#: ``poi_*`` kind reads one measure off a POI cell store.
KINDS: Dict[str, Tuple[str, ...]] = {
    "through": STRATEGIES,
    "dwell": ("grid", "preagg"),
    **{
        f"poi_{measure}": ("serial", "sharded", "preagg")
        for measure in ("visits", "visitors", "dwell", "topk")
    },
}


@dataclass(repr=False)
class Leaf:
    """One resolved aggregate, which the planner prices and
    :func:`execute` runs: the kind, the table with its ``version`` at
    resolve, the restriction, the matched ``store`` (None: none serves,
    or none was sought; ``store_missed``: stores are registered and none
    serves), then the kind's own fields — the geometric answer with the
    store's ``granules`` run and whether it is the whole restriction
    (``aligned``), or the POI layer, its discs, granule level,
    ``min_dwell`` and ``k``.  Nothing builds a restricted table.

    What the leaf derives from those fields — row and sliver masks,
    restricted rows, geometry statistics, the hybrid's sliver segment
    index or table, the planner's price — is computed on first use, at
    most once (the price once per live key), into ``held``
    (:meth:`memo`), which the copies :meth:`bound` makes share: the
    leaves a context's prepared entry hands out
    (:meth:`~repro.query.region.EvaluationContext.prepared`) derive each
    of them once per entry."""

    kind: str
    context: Optional[EvaluationContext]
    moft: MOFT
    version: int
    window: Optional[Tuple[float, float]] = None
    instants: Optional[FrozenSet[float]] = None
    store: Optional["GranuleStore"] = None
    store_missed: bool = False
    target: Optional[Tuple[str, str]] = None
    ids: FrozenSet[Hashable] = frozenset()
    granules: Optional[Tuple[int, int]] = None
    aligned: bool = True
    #: Wall time of the geometric subquery (0.0: the ids were given, or
    #: the leaf came from a prepared entry).
    geosub_seconds: float = 0.0
    layer: Optional[str] = None
    pois: Mapping[Hashable, object] = field(default_factory=dict)
    granule_level: Optional[str] = None
    min_dwell: float = 0.0
    k: Optional[int] = None
    held: Dict[str, object] = field(default_factory=dict)

    def memo(self, name: str, compute: Callable[[], object]) -> object:
        """``held[name]``, computed by ``compute`` on first use (what it
        computes must not hold a context)."""
        try:
            return self.held[name]
        except KeyError:
            value = self.held[name] = compute()
            return value

    def bound(self, context: Optional[EvaluationContext]) -> "Leaf":
        """A copy bound to ``context`` (None: to none, as a prepared
        entry keeps it) that shares ``held``; the copy ran no geometric
        subquery of its own."""
        leaf = object.__new__(Leaf)
        leaf.__dict__.update(self.__dict__)
        leaf.context, leaf.geosub_seconds = context, 0.0
        return leaf

    @property
    def poi(self) -> bool:
        return self.kind.startswith("poi_")

    @property
    def restriction(self) -> Optional[TimeRestriction]:
        """The time restriction (None: the whole table)."""
        if self.window is None and self.instants is None:
            return None
        return (self.window, self.instants)

    @property
    def row_mask(self) -> Optional[np.ndarray]:
        """The time restriction as a row mask (None: the whole table)."""
        if self.restriction is None:
            return None
        return self.memo(
            "row_mask", lambda: restriction_mask(self.moft, *self.restriction)
        )

    @property
    def rows(self) -> int:
        """Rows of the restricted table, without building it: the
        restriction applied to the table's distinct instants, each
        weighed by its row count."""
        if self.restriction is None:
            return len(self.moft)
        return self.memo("rows", self._restricted_rows)

    def _restricted_rows(self) -> int:
        instants, counts = self.moft.instant_counts()
        if self.instants is not None:
            kept = instants_member_mask(instants, sorted_instants(self.instants))
        else:
            kept = (instants >= self.window[0]) & (instants <= self.window[1])
        return int(counts[kept].sum())

    @property
    def sliver_mask(self) -> Optional[np.ndarray]:
        """Rows the hybrid still has to scan beside the store's answer:
        those of the window segments with an endpoint in a sliver
        (:meth:`~repro.preagg.PreAggStore._sliver_scan_mask`; None: the
        run covers the restriction)."""
        if self.aligned:
            return None
        return self.memo(
            "sliver_mask",
            lambda: self.store._sliver_scan_mask(*self.window, self.granules),
        )

    @property
    def sliver_rows(self) -> int:
        mask = self.sliver_mask
        return 0 if mask is None else self.memo(
            "sliver_rows", lambda: int(mask.sum())
        )

    @property
    def sorted_ids(self) -> List[Hashable]:
        """The geometric answer in id order (``repr``)."""
        return self.memo("sorted_ids", lambda: sorted(self.ids, key=repr))

    @property
    def gid_codes(self) -> np.ndarray:
        """The matched store's positions of :attr:`sorted_ids`, which
        its reads take."""
        return self.memo(
            "gid_codes", lambda: self.store._gid_codes(self.sorted_ids)
        )

    def count(
        self, name: str, stats: Optional[PipelineStats] = None, by: int = 1
    ) -> None:
        """Add to a routing counter (``poi_``-prefixed for the POI kinds)
        on the context observer, and on the caller's ``stats`` when that
        is another object."""
        name = f"poi_{name}" if self.poi else name
        self.context.obs.incr(name, by)
        if stats is not None and stats is not self.context.obs:
            stats.incr(name, by)

    def check_unchanged(self, strategy: str) -> None:
        """The one staleness rule: appends since the leaf was resolved
        (or a store read from a store gone stale) would answer off what
        planning did not see — refuse."""
        if self.moft.version == self.version and not (
            strategy == "preagg" and self.store.is_stale()
        ):
            return
        raise EvaluationError(
            f"MOFT {self.moft.name!r} changed after the query was "
            f"resolved: its {self.kind} leaf went stale after planning; "
            f"resolve (plan) again"
        )


def store_or_scan(
    leaf: Leaf, executor: Optional["ShardedTrajectoryExecutor"] = None
) -> str:
    """The strategy a through front-end that does not price its leaf
    forces: ``preagg`` when a store serves, else the scan — fanned out
    over ``executor`` when one is given and the answer is not empty,
    else ``grid``."""
    if leaf.store is not None:
        return "preagg"
    if executor is not None and leaf.ids:
        return "sharded"
    return "grid"


def refuse(
    leaf: Leaf,
    strategy: str,
    executor: Optional[object] = None,
    candidates: Optional[Iterable[str]] = None,
) -> None:
    """Refuse a strategy ``leaf`` cannot run under — one set of messages
    for every kind, shared by the planner's forced strategy (whose
    priced ``candidates`` are passed) and :func:`execute`."""
    if strategy not in STRATEGIES:
        raise EvaluationError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    if candidates is None:
        candidates = KINDS[leaf.kind]
    if strategy == "sharded" and executor is None:
        why = "no executor was passed to run it"
    elif strategy == "preagg" and leaf.store is None:
        why = "no fresh store serves the query"
    elif strategy not in candidates:
        why = f"not a candidate for this {leaf.kind} query"
    else:
        return
    raise EvaluationError(
        f"strategy {strategy!r} is not applicable here: {why} "
        f"(candidates: {sorted(candidates)})"
    )


def match_store(leaf: Leaf, store: Optional["GranuleStore"]) -> Leaf:
    """The store-match epilogue of both resolve steps: keep ``store``
    when it is fresh (nothing refreshes behind the caller's back) and,
    for a geometric answer, holds a whole granule run of the restriction
    (an instant set must *be* a granule run: it has no sliver to scan);
    else note a miss when stores are registered."""
    if store is not None and store.is_stale():
        store = None
    if store is not None and leaf.target is not None:
        if leaf.instants is not None:
            leaf.granules = _granule_run_of(store.partition, leaf.instants)
        elif leaf.window is not None:
            leaf.granules = store.covered_run(*leaf.window)
            leaf.aligned = leaf.granules is None or store.is_aligned(
                *leaf.window
            )
        elif len(store.partition):
            # A fresh store covers the whole table by construction.
            leaf.granules = (0, len(store.partition) - 1)
        if leaf.granules is None:
            store = None
    leaf.store = store
    leaf.store_missed = store is None and leaf.context.has_preagg
    return leaf


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
    kind: str = "through",
) -> Leaf:
    """Resolve a through-style query (``kind`` ``through`` or ``dwell``)
    to its leaf, once per state of what it reads.

    Answers the geometric subquery (unless the caller holds its ``ids``,
    as Piet-QL does), validates the time restriction — none, a ``[start,
    end]`` ``window`` or a DURING ``instants`` set — and, with
    ``use_preagg``, matches a registered store (:func:`match_store`)
    materializing every id over exactly this MOFT.  The context keeps
    the leaf under the spec (every argument but ``obs``) and hands the
    same resolution out again until the table, the Time dimension, the
    geometries or the stores change
    (:meth:`~repro.query.region.EvaluationContext.prepared`): a repeated
    query answers no subquery, validates no window and matches no store.
    It touches no routing counter: those move when the query executes.
    """
    moft = context.moft(moft_name)
    if instants is not None:
        instants = frozenset(instants)
    if ids is not None:
        ids = frozenset(ids)
    key = (
        kind, tuple(target),
        tuple((predicate, tuple(other)) for predicate, other in constraints),
        moft_name, None if window is None else tuple(window), instants, ids,
        use_preagg,
    )

    def resolve() -> Leaf:
        seconds, answer = 0.0, ids
        restricted = validated_window(moft, window)
        if answer is None:
            started = time.perf_counter()
            answer = geometric_subquery(context, target, constraints, obs=obs)
            seconds = time.perf_counter() - started
        leaf = Leaf(
            kind, context, moft, moft.version, restricted, instants,
            target=target, ids=frozenset(answer), geosub_seconds=seconds,
        )
        if not (use_preagg and leaf.ids):
            return leaf
        return match_store(
            leaf, context.preagg_for(moft, target[0], target[1], leaf.ids)
        )

    return context.prepared(key, moft, resolve)


@dataclass
class Run:
    """One execution's record, which fills the actuals of every kind's
    plan nodes (:meth:`~repro.query.planner.QueryPlan.record`): the
    answer (a through leaf's an :class:`~repro.mo.moft.ObjectSet` of the
    leaf's table), this execution's own ``stats`` (a fan-out's workers
    included), and rows and seconds of each part — the ``scan`` leaf
    (POI: rows segmented), the ``fanout`` around it and the store
    ``lookup`` (rows it left to scan; POI: entries it returned)."""

    answer: object
    stats: EvaluationStats
    strategy: str
    #: The cell store a POI measure was read off (None: other kinds).
    store: Optional["GranuleStore"] = None
    seconds: float = 0.0
    scan_rows: int = 0
    leaf_seconds: float = 0.0
    scan_seconds: float = 0.0
    lookup_rows: int = 0
    lookup_seconds: float = 0.0

    @property
    def rows(self) -> int:
        """Rows of the answer: matched objects (its code count) or
        measure entries (a dwell total is one)."""
        return 1 if isinstance(self.answer, float) else len(self.answer)

    @property
    def shards(self) -> int:
        """How many shards ran (0: nothing fanned out)."""
        return self.stats.count("shard_count")

    def actuals(self, part: str) -> Tuple[int, float]:
        """``(rows, seconds)`` of ``scan``, ``fanout`` or ``lookup``."""
        if part == "scan":
            return self.scan_rows, self.leaf_seconds
        if part == "fanout":
            return self.scan_rows, self.scan_seconds
        return self.lookup_rows, self.lookup_seconds


#: The store read of each POI kind.
_POI_READS = {
    "poi_visits": lambda store, k: store.visit_counts(),
    "poi_visitors": lambda store, k: store.distinct_visitors(),
    "poi_dwell": lambda store, k: store.dwell_times(),
    "poi_topk": lambda store, k: store.topk(k),
}


def execute(
    leaf: Leaf,
    strategy: str,
    executor: Optional["ShardedTrajectoryExecutor"] = None,
    stats: Optional[EvaluationStats] = None,
) -> Run:
    """Execute ``leaf`` under ``strategy``; return the run record.

    The one executor of every kind and front-end: after :func:`refuse`
    and :meth:`Leaf.check_unchanged`, the kind's store read (``preagg``)
    or its scan leaf — through (the counter in the strategy's shape,
    ``serial`` the unindexed walk), dwell, or the POI segmentation pass
    into a throwaway store.  ``sharded`` fans the leaf out over
    ``executor``, handed the whole table and the restriction so that
    what it partitions is the same object from query to query; a store
    read fans the through sliver out over an ``executor`` too.

    Routing counters go to the context observer and ``stats`` — a
    ``preagg_hits`` per store read, a ``preagg_misses`` per execution of
    a leaf that found stores registered and none serving, whatever
    chose the strategy; a scan's figures to ``stats`` when passed, else
    to the executor's observer when a through fan-out ran (it reports
    there itself), else to the context observer — each observer once.
    A POI build always reports into the context observer, as a store
    build does.
    """
    refuse(leaf, strategy, executor)
    leaf.check_unchanged(strategy)
    if leaf.store_missed:
        leaf.count("preagg_misses", stats)
    started = time.perf_counter()
    run = Run(
        0.0 if leaf.kind == "dwell"
        else leaf.moft.object_set(np.empty(0, dtype=np.intp)),
        EvaluationStats(), strategy,
    )
    if leaf.poi:
        _poi_leaf(leaf, strategy, executor, run)
    elif leaf.ids:
        branch = _dwell_leaf if leaf.kind == "dwell" else _through_leaf
        branch(leaf, strategy, executor, stats, run)
    if not leaf.poi:
        run.scan_rows = run.stats.count("scan_rows")
        run.leaf_seconds = run.stats.seconds(EvaluationStats.SCAN_STAGE)
    run.seconds = time.perf_counter() - started
    return run


def _report(run: Run, sink: Optional[PipelineStats], executor) -> None:
    """Merge the run's figures into ``sink``, unless a fan-out already
    reported them there (into its executor's observer)."""
    if sink is not None and sink is not getattr(executor, "obs", None):
        sink.merge(run.stats)


def _store_read(leaf: Leaf, run: Run, read) -> object:
    """A timed read of a geometric store (the ``preagg_lookup`` stage)."""
    started = time.perf_counter()
    answer = read()
    run.lookup_seconds = time.perf_counter() - started
    leaf.context.obs.record("preagg_lookup", run.lookup_seconds)
    return answer


def _through_leaf(leaf, strategy, executor, stats, run) -> None:
    """Store read (plus the sliver the store leaves) or scan leaf: an
    answer of codes into the leaf's table either way."""
    context, moft = leaf.context, leaf.moft
    if strategy not in ("sharded", "preagg"):
        executor = None
    rows = index = restriction = None
    if strategy == "preagg":
        run.answer = _store_read(
            leaf, run,
            lambda: moft.object_set(leaf.store._polygon_run_codes(
                leaf.gid_codes, *leaf.granules, "passers"
            )),
        )
        leaf.count("preagg_hits", stats)
        run.lookup_rows = leaf.sliver_rows
        if leaf.sliver_mask is None:
            return
        # (A sliver mask selects at least the sliver's own rows.)
        leaf.count("sliver_scan_rows", stats, leaf.sliver_rows)
        # What the store already proves needs no second look.
        proven = np.zeros(moft.oids.shape[0], dtype=bool)
        proven[run.answer.codes] = True
        # The store's answer is the same while the leaf is, and so are
        # the rows it leaves: the entry keeps their segment index for
        # the scan in place, and hands a fan-out one table per leaf,
        # whose partition its executor keeps.
        rows = leaf.memo("unproven_rows", lambda: _unproven(leaf, proven))
        if rows is None:
            return
        if executor is not None:
            moft = leaf.memo("sliver_table", lambda: moft.mask_rows(rows))
            rows = None
        else:
            index = leaf.memo(
                "sliver_index", lambda: moft.segment_index().masked(rows)
            )
    elif not leaf.rows:
        return
    elif executor is not None:
        # The executor keeps the shards of the table it is handed: give
        # it the one that lasts and let each shard task mask its rows,
        # not a restricted table that is a new object per query.
        restriction = leaf.restriction
    else:
        rows = leaf.row_mask
    counter = counter_for(
        context, leaf.target, leaf.ids, strategy, stats, rows=len(moft)
    )
    started = time.perf_counter()
    if executor is not None:
        found = executor.matching_objects(
            counter, moft, run.stats, restriction=restriction
        )
    elif index is not None:
        found = counter._matching(moft, index, rows, run.stats)
    else:
        found = counter.matching_objects(moft, run.stats, rows=rows)
    run.scan_seconds = time.perf_counter() - started
    if strategy == "preagg":
        # The sliver's objects join the store's, a scatter over the
        # table (a fanned-out sliver answers in its own table's codes).
        if moft is not leaf.moft:
            found = leaf.moft.encode(found)
        proven[found.codes] = True
        found = leaf.moft.object_set(np.flatnonzero(proven))
    run.answer = found
    sink = stats if stats is not None or executor is not None else context.obs
    _report(run, sink, executor)


def _unproven(leaf: Leaf, proven: np.ndarray) -> Optional[np.ndarray]:
    """The sliver rows of the objects ``proven`` leaves out (None: no
    row)."""
    rows = leaf.sliver_mask & ~proven[leaf.moft.object_codes()]
    return rows if rows.any() else None


def _dwell_leaf(leaf, strategy, executor, stats, run) -> None:
    """Store read (cells, spanning records, slivers clipped directly) or
    the dwell leaf: the answer pass's dwell pairs per segment batch of the
    restricted table (:meth:`~repro.geometry.kernels.PolygonPass
    .dwell_pairs`: segments in cells decided inside a polygon, then one
    broad phase and one dwell-kernel call for the rest), added up polygon
    by polygon in id order.  A store read takes the leaf's held sliver
    rows (none when the restriction is aligned: the run's cells)."""
    context, ids = leaf.context, leaf.sorted_ids
    if strategy == "preagg":
        leaf.count("preagg_hits", stats)
        run.answer = _store_read(
            leaf, run,
            lambda: leaf.store._window_dwell(
                leaf.gid_codes, leaf.granules, leaf.sliver_mask
            ),
        )
        return
    polygons = context.geometry_index(*leaf.target, ids, obs=stats)
    run.stats.incr("scan_rows", leaf.rows)
    total = 0.0
    with run.stats.stage(EvaluationStats.SCAN_STAGE):
        for batch in leaf.moft.segments(rows=leaf.row_mask):
            pos, _, dwell, _ = polygons.dwell_pairs(batch, obs=run.stats)
            run.stats.incr("bbox_rejections", len(batch) * len(ids) - pos.size)
            run.stats.incr("segment_checks", pos.size)
            for part in kernels.polygon_sums(pos, dwell, range(len(ids))):
                total += part
    run.answer = total
    _report(run, stats if stats is not None else context.obs, None)


def _poi_leaf(leaf, strategy, executor, run) -> None:
    """Read the resolved store, or build a throwaway one — one
    segmentation pass of the table, or one per object shard on
    ``executor``'s backend merged with completeness checks — then read
    the kind's measure off it."""
    context = leaf.context
    if strategy == "preagg":
        leaf.count("preagg_hits")
        started = time.perf_counter()
        run.store = leaf.store
        run.answer = _POI_READS[leaf.kind](run.store, leaf.k)
        run.lookup_seconds = time.perf_counter() - started
        run.lookup_rows = len(run.answer)
        return
    args = (leaf.moft, context.time, leaf.granule_level, leaf.pois)
    options = dict(layer=leaf.layer, min_dwell=leaf.min_dwell, obs=run.stats)
    started = time.perf_counter()
    if strategy == "serial":
        executor, run.store = None, PoiVisitStore(*args, **options)
    else:
        run.store = executor.build_store(PoiVisitStore, *args, **options)
    run.scan_seconds = run.leaf_seconds = time.perf_counter() - started
    run.scan_rows = len(leaf.moft)
    _report(run, context.obs, executor)
    run.answer = _POI_READS[leaf.kind](run.store, leaf.k)


def objects_through(
    context: EvaluationContext,
    target: Tuple[str, str],
    constraints: Sequence[Tuple[str, Tuple[str, str]]],
    moft_name: str = "FM",
    stats: Optional[EvaluationStats] = None,
    executor: Optional["ShardedTrajectoryExecutor"] = None,
    window: Optional[Tuple[float, float]] = None,
    use_preagg: bool = True,
) -> ObjectSet:
    """The matched objects behind :func:`count_objects_through`, as
    codes into the table: resolve, force :func:`store_or_scan`, execute.

    ``window`` restricts the trajectory scan to samples with ``start <=
    t <= end``.  With ``use_preagg`` (the default) a registered fresh
    :class:`~repro.preagg.PreAggStore` answers the covered granule run
    from its cells and spanning records, and only the misaligned
    *sliver* residue — if any — is scanned (serially or through
    ``executor``).  The hybrid is exact; ``use_preagg=False`` with no
    executor is the plain scan, the oracle of every differential suite.
    """
    leaf = resolve_through(
        context, target, constraints, moft_name, window=window, obs=stats,
        use_preagg=use_preagg,
    )
    return execute(leaf, store_or_scan(leaf, executor), executor, stats).answer


def count_objects_through(
    context: EvaluationContext,
    target: Tuple[str, str],
    constraints: Sequence[Tuple[str, Tuple[str, str]]],
    moft_name: str = "FM",
    stats: Optional[EvaluationStats] = None,
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
    return len(objects_through(
        context, target, constraints, moft_name, stats, executor, window,
        use_preagg,
    ))


__all__ = [
    "EvaluationStats",
    "KINDS",
    "Leaf",
    "Run",
    "STRATEGIES",
    "ShardedTrajectoryExecutor",
    "TimeRestriction",
    "TrajectoryIntersectionCounter",
    "counter_for",
    "execute",
    "geometric_subquery",
    "match_store",
    "refuse",
    "resolve_through",
    "restriction_mask",
    "store_or_scan",
    "validated_window",
    "objects_through",
    "count_objects_through",
]
