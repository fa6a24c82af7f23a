"""Pipeline observability: named counters and per-stage wall-clock timers.

The Section 5 pipeline (geometric subquery → index build → trajectory
segment scan) is the workload the benchmarks ablate, and every stage used
to carry its own ad-hoc statistics object (``EvaluationStats`` fields,
a context-level dict, per-benchmark counters).  This
module generalizes them into one small instrumentation vocabulary:

* :class:`PipelineStats` — a bag of *named counters* (``incr``/``count``)
  and *named stage timers* (``stage`` context manager accumulating call
  counts and seconds);
* :class:`EvaluationStats` — the trajectory-scan statistics: a
  :class:`PipelineStats` whose scan figures are named counters read
  with ``count`` and whose wall time is the ``segment_scan`` stage.

Counter names used by the built-in pipeline (see ``docs/API.md``):

``grid_index_builds`` / ``grid_index_cache_hits``
    :meth:`repro.query.EvaluationContext.geometry_index` cache behavior:
    the one index per geometric answer (a polygon answer's pass, any
    other answer's grid) built, or found kept by its layer
    (:meth:`repro.gis.layer.Layer.geometry_index`, shared by every
    context over the GIS).
``prepared_leaf_hits`` / ``prepared_leaf_misses``
    :meth:`repro.query.EvaluationContext.prepared`: a query whose spec
    found its resolved leaf still valid (no geometric subquery, window
    validation or store match ran), or resolved it (the first time, or
    after the table, the Time dimension, the geometries or the
    registered stores changed).
``regions_lowered`` / ``regions_solved``
    :meth:`repro.query.SpatioTemporalRegion.relation` calls whose formula
    had the sample-semantics shape and was evaluated as columns, and
    calls that went to the solver (one or the other per call).
``vectorized_accepts``
    Objects accepted by the columnar point-in-polygon prefilter without a
    segment scan.
``segment_checks`` / ``bbox_rejections`` / ``objects_scanned`` /
``objects_matched``
    The trajectory scans.  On the batched scans of polygon answers
    (count and dwell) ``segment_checks`` is the (polygon, segment) pairs
    the broad phase handed the kernel and ``bbox_rejections`` the rest
    of segments x polygons; on the per-object walk they are the probes
    tested exactly and the candidates pruned before that.

``shard_count`` / ``merge_ms``
    :class:`repro.parallel.ShardedExecutor` fan-out: shards dispatched,
    and merge wall time rounded to milliseconds (the exact figure is the
    ``merge`` stage timer).

``fault_injected`` / ``task_retries`` / ``task_timeouts`` /
``backend_degradations``
    The resilient execution layer (:func:`repro.parallel.backends
    .resilient_map`): faults fired from a :class:`~repro.faults
    .FaultPlan`, task attempts re-scheduled, attempts that exceeded the
    :class:`~repro.parallel.backends.RetryPolicy` timeout, and
    descents of a fan-out to the ``serial`` backend (from ``processes``
    or a caller-supplied one; one per descent).  Every fan-out runs
    through this layer; all four stay zero while no fault is planned and
    no task fails.

``clip_kernel_segments`` / ``clip_kernel_crossings`` /
``clip_kernel_fallback``
    The vectorized clip kernel (:mod:`repro.geometry.kernels`): segments
    classified in batch; the subset that crossed the boundary and was
    solved in the batch; and the subset that fell back to the scalar
    methods (``Polygon.clip_segment`` / ``intersects_segment``) — every
    row that called them and no other.  The remainder, ``segments -
    crossings - fallback``, was decided in the far field.  The fallback
    share is the kernel's efficiency figure; exactness is unconditional.

``zero_copy_blocks`` / ``zero_copy_fallbacks`` / ``missing_shards``
    Zero-copy shard transport (:mod:`repro.parallel.shm`): shared-memory
    blocks created — one by the first ``processes`` fan-out over a
    resident image, one by any later fan-out some worker of which
    lacked the image, none by a fan-out a warm pool answers from what
    it holds; ``processes`` fan-outs that fell back to pickled shard
    payloads (object ids not encodable as str/int); and shard tasks
    re-sent with a block (and a scan counter's geometries) because their
    worker reported the image, or the counter's layer, missing (within
    the same attempt: never a retry).
``shard_cache_hits`` / ``shard_cache_misses``
    :class:`repro.parallel.ShardedExecutor`'s resident shards: MOFT
    fan-outs that found the partition of their ``(table, version, rows,
    shard count)`` in the executor, and fan-outs that had
    to cut it (the first for a table, the first after an append, one
    pushed out by more recently used tables).  Every MOFT fan-out counts
    one or the other; neither says anything about blocks.
``pass_cache_hits`` / ``pass_cache_misses``
    The one miss/re-send protocol of a shard scan task's geometry
    state.  A counter over a layer's answer is sent as the answer's key
    alone; a task whose process holds that layer (its own, the copy a
    fork handed a pool worker, or a stand-in) takes geometries and index
    from it and counts a hit.  One whose process does not raises
    :class:`~repro.errors.ShardMissing` (a ``missing_shards`` count) and
    is re-sent with the geometries in the same attempt, spending no
    retry; the re-sent task counts the miss.  Counted in the worker,
    only when the counter was pickled (the ``processes`` backend).
``bytes_serialized`` / ``peak_shard_payload_bytes``
    Payload accounting, recorded only under
    ``ShardedExecutor(track_payload_bytes=True)``: total pickled task
    payload bytes across a fan-out, and the largest single payload (a
    *gauge* holding the maximum seen).  Descriptor-sized payloads on the
    zero-copy route, O(rows) on the pickled route; the benchmark's traced
    ``sharded_fanout`` run turns it on.

``preagg_hits`` / ``preagg_misses``
    Routing through the materialized pre-aggregation layer
    (:mod:`repro.preagg`), counted when a through-style query
    *executes* (:func:`repro.query.evaluator.execute`: the through
    and dwell leaves; ``poi_preagg_*`` for the POI ones), never when it is
    resolved or planned, on the context observer and on the caller's
    ``stats``: a hit means the covered part of the query was answered
    from store cells, a miss that the executed leaf found stores
    registered and none that could serve (stale, unmaterialized
    geometry, restriction without a whole granule), whatever chose its
    strategy.  Contexts with no registered store count neither.
``sliver_scan_rows``
    MOFT rows of the residual sliver when a misaligned window executes
    through a store (the hybrid's scan input, before the objects the
    store already proves leave it).

``scan_rows``
    MOFT rows handed to a trajectory scan (every
    :meth:`~repro.query.evaluator.TrajectoryIntersectionCounter
    .matching_objects` call and every
    :func:`~repro.query.aggregate.total_dwell_time` scan adds the
    scanned table's length); the cost-based planner reads this back as
    a plan node's *actual rows*.

    *Which observer sees a scan.*  One execution of a through-count
    counts its scan (``scan_rows``, ``segment_checks``,
    ``bbox_rejections``, ``objects_*``, ``vectorized_accepts``, the
    ``segment_scan`` stage) into one stats object of its own, which
    fills the plan-node actuals and is then merged once: into ``stats``
    when the caller passed one, else — a fan-out reports into its
    executor's observer itself — the executor's observer when a fan-out
    ran, else the context observer.  No observer receives the same
    execution twice.

``jobs_submitted`` / ``jobs_rejected`` / ``jobs_claimed`` /
``jobs_completed`` / ``jobs_failed`` / ``jobs_dead`` /
``jobs_cancelled`` / ``jobs_requeued`` / ``jobs_reclaimed`` /
``worker_crashes``
    The query service layer (:mod:`repro.service`): submissions accepted
    into the queue, submissions bounced by admission control, claims
    handed to workers, terminal outcomes by kind, failed attempts put
    back on the queue for retry, expired leases released by the reaper,
    and workers killed mid-job by an injected fault.
``queue_depth`` / ``jobs_in_flight`` / ``workers_busy``
    Service *gauges* (set via :meth:`PipelineStats.gauge`, not summed):
    currently queued jobs, jobs anywhere between submit and a terminal
    state, and workers currently executing a claim.

``samples_submitted`` / ``samples_ingested`` / ``samples_late`` /
``ingest_batches`` / ``ingest_flushes``
    The streaming-ingest layer (:mod:`repro.ingest`): samples handed to
    :meth:`~repro.ingest.StreamingIngestor.submit`, samples sealed into
    published snapshots, samples routed to the late side channel
    (beyond the watermark — counted, kept, never silently dropped),
    batches accepted, and watermark flushes that published a snapshot.
    Exhaustiveness invariant at any instant: ``samples_submitted ==
    samples_ingested + samples_late + samples_buffered``.
``samples_buffered`` / ``watermark_lag`` / ``snapshot_count``
    Ingest *gauges*: samples above the watermark awaiting their seal,
    how far (event-time units, truncated to int) the watermark trails
    the newest event seen, and snapshots published so far (the base
    version counts as one).

``cell_decided_points``
    Points a decided-cell label answered without a containment call
    (:func:`repro.query.vectorized.points_inside`: the through scan's
    sample prefilter and the pre-aggregation store's sample fold).  The
    other points of those calls went through the broad phase and
    ``pairs_contain``.
``cell_decided_segments``
    Segments a dwell pass decided from their cells, with no broad phase
    and no kernel call (:meth:`repro.geometry.kernels.PolygonPass
    .dwell_pairs`: the pre-aggregation store's segment fold, its
    ``window_dwell`` sliver and the dwell leaf): every cell their box
    maps to is decided inside one polygon, so each is that polygon's
    one pair, with its full ``dt``.  The dwell leaf still counts the
    pair as a ``segment_check`` and the other polygons as
    ``bbox_rejections``; ``clip_kernel_segments`` leaves it out.

``disc_kernel_segments``
    Pieces whose box meets the disc's grown box: the trajectory pieces
    classified against a place-of-interest disc by the vectorized
    quadratic clip (:func:`repro.geometry.kernels.disc_clip_batch`),
    whichever backend ran.  The segmented scan and the walk apply the
    same box test (:mod:`repro.poi.segmentation`).
``stop_episodes`` / ``poi_visits``
    The stop/move layer (:mod:`repro.poi`): stop episodes produced by
    :func:`~repro.poi.segment_stops_moves` or, for a whole table, by the
    segmented scan (:func:`~repro.poi.segmentation.batch_stops` — the
    same episodes), and per-(POI, granule) visit attributions folded
    into the cell table of a store build.
``poi_preagg_hits`` / ``poi_preagg_misses``
    POI aggregate routing (:mod:`repro.query.poi`): queries served from
    a registered fresh :class:`~repro.poi.PoiVisitStore`, and queries
    that found registered stores but none fresh and covering.
``poi_store_updates``
    Incremental maintenance: :meth:`~repro.poi.PoiVisitStore.update`
    calls that actually folded (delta or rebuild; ``fresh`` no-ops
    don't count).

Stage names: ``geometric_subquery``, ``index_build``, ``segment_scan``;
the sharded executor adds ``shard_fanout`` (dispatch-to-last-result wall
time), ``shard_scan`` (per-shard work, one call per shard, summed across
shards), ``merge``, and ``retry_backoff`` (deterministic backoff sleeps
between retry rounds); the pre-aggregation layer adds ``preagg_build``,
``preagg_update`` (store maintenance) and ``preagg_lookup`` (the cell
read of a store-served query, on the context observer); Piet-QL adds
``during_restriction`` (DURING clauses to an instant set — the
restricted table is not built there); the query service adds ``service_queue_wait``
(submit-to-claim latency, one call per claim), ``service_run``
(claim-to-outcome execution wall time, one call per finished attempt)
and ``worker_idle`` (waits of workers with nothing to claim for the
queue's change signal —
utilization is ``service_run / (service_run + worker_idle)``); the
streaming-ingest layer adds ``ingest_fold`` (seal → publish → clone →
store fold, one call per flush).

Thread safety: counters and stage timers are mutated from several
threads at once — the query service's workers, concurrent ingest
submitters, a caller-supplied thread backend of :mod:`repro.parallel` —
so every read-modify-write on a :class:`PipelineStats` goes through one
re-entrant lock —
``incr``, ``record``, ``stage`` entry/exit, ``merge``, ``reset`` and the
snapshot helpers are all atomic.  Instances stay picklable (the
``processes`` backend ships worker stats back to the parent): the lock is
dropped on pickle and recreated on unpickle.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional


class StageTimer:
    """Accumulated wall time of one named pipeline stage."""

    __slots__ = ("calls", "seconds")

    def __init__(self, calls: int = 0, seconds: float = 0.0) -> None:
        self.calls = calls
        self.seconds = seconds

    def record(self, seconds: float) -> None:
        """Add one timed call."""
        self.calls += 1
        self.seconds += seconds

    def __repr__(self) -> str:
        return f"StageTimer(calls={self.calls}, seconds={self.seconds:.6f})"


class PipelineStats:
    """Named counters plus per-stage timers for one pipeline run.

    Counters spring into existence at zero on first use; stages likewise.
    Instances are cheap and composable — evaluation entry points accept an
    optional instance and create a throwaway one when none is given.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.stages: Dict[str, StageTimer] = {}
        self._lock = threading.RLock()

    # -- pickling (the processes backend ships stats across the pool) --------

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # -- counters ------------------------------------------------------------

    def incr(self, name: str, by: int = 1) -> int:
        """Add ``by`` to a named counter; returns the new value (atomic)."""
        with self._lock:
            value = self.counters.get(name, 0) + by
            self.counters[name] = value
            return value

    def count(self, name: str) -> int:
        """Current value of a named counter (0 if never incremented)."""
        return self.counters.get(name, 0)

    def gauge(self, name: str, value: int) -> int:
        """Set a named counter to a point-in-time value (atomic).

        Gauges share the counter namespace but are *set*, not summed —
        the query service keeps ``queue_depth`` / ``jobs_in_flight`` /
        ``workers_busy`` current this way.  Do not :meth:`merge` stats
        objects that both carry the same gauge: merge adds.
        """
        with self._lock:
            value = int(value)
            self.counters[name] = value
            return value

    # -- timers --------------------------------------------------------------

    def timer(self, name: str) -> StageTimer:
        """Return (creating if needed) the timer of a named stage."""
        with self._lock:
            timer = self.stages.get(name)
            if timer is None:
                timer = self.stages[name] = StageTimer()
            return timer

    @contextmanager
    def stage(self, name: str) -> Iterator[StageTimer]:
        """Time a ``with`` block under a stage name (re-entrant, additive)."""
        timer = self.timer(name)
        start = time.perf_counter()
        try:
            yield timer
        finally:
            self.record(name, time.perf_counter() - start)

    def record(self, name: str, seconds: float) -> StageTimer:
        """Record one externally-timed call under a stage name (atomic).

        The sharded executor uses this for per-shard timings: workers
        (possibly in other processes) measure their own wall time and the
        parent folds each measurement into its observer.
        """
        with self._lock:
            timer = self.timer(name)
            timer.record(float(seconds))
            return timer

    def seconds(self, name: str) -> float:
        """Accumulated seconds of a stage (0.0 if never entered)."""
        timer = self.stages.get(name)
        return timer.seconds if timer is not None else 0.0

    # -- aggregation ---------------------------------------------------------

    def merge(self, other: "PipelineStats") -> "PipelineStats":
        """Fold another instance's counters and timers into this one.

        Atomic on *this* instance; ``other`` should be quiescent (a
        returned worker's stats), as its dicts are iterated unlocked.
        """
        with self._lock:
            for name, value in other.counters.items():
                self.incr(name, value)
            for name, timer in other.stages.items():
                mine = self.timer(name)
                mine.calls += timer.calls
                mine.seconds += timer.seconds
            return self

    def reset(self) -> None:
        """Zero every counter and timer."""
        with self._lock:
            self.counters.clear()
            self.stages.clear()

    def as_dict(self) -> Dict[str, float]:
        """Flat report: counters verbatim, stages as ``<name>_seconds``."""
        with self._lock:
            report: Dict[str, float] = dict(self.counters)
            for name, timer in self.stages.items():
                report[f"{name}_seconds"] = timer.seconds
                report[f"{name}_calls"] = timer.calls
            return report

    # -- deltas (plan-node actuals) ------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """An atomic flat copy of every counter and stage figure.

        Pair with :meth:`since` to attribute counters and wall time to
        one bounded piece of work seen from outside (the benchmark's
        spans bracket calls this way; plan-node actuals do not need it —
        they come from the stats object of the one execution).
        """
        return self.as_dict()

    def since(self, snapshot: Mapping[str, float]) -> Dict[str, float]:
        """The change of every counter/stage figure since a snapshot.

        Returns only non-zero deltas; figures absent from the snapshot
        count from zero.  Counters stay ints, stage figures stay floats.
        """
        current = self.as_dict()
        delta: Dict[str, float] = {}
        for name, value in current.items():
            change = value - snapshot.get(name, 0)
            if change:
                delta[name] = change
        return delta

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(counters={self.counters}, "
            f"stages={self.stages})"
        )


class EvaluationStats(PipelineStats):
    """Trajectory-scan statistics of one evaluation (Section 5, step 2):
    the scan's figures (``segment_checks``, ``bbox_rejections``,
    ``objects_scanned``, ``objects_matched``, ``scan_rows``, ...) are
    named counters and its wall time is the :attr:`SCAN_STAGE` stage."""

    #: The stage a trajectory scan times itself under.
    SCAN_STAGE = "segment_scan"


__all__ = ["StageTimer", "PipelineStats", "EvaluationStats"]
