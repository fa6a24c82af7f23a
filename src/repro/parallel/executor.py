"""Sharded, parallel evaluation of MOFT queries.

The Section 5 pipeline is embarrassingly parallel in its expensive step:
the trajectory scan touches each object independently, so a MOFT split by
:meth:`~repro.mo.moft.MOFT.partition_by_objects` can be scanned shard by
shard and the per-shard answers merged exactly (disjoint object sets —
set union).  :class:`ShardedExecutor` packages that recipe:

* a pluggable :mod:`backend <repro.parallel.backends>` (``serial`` /
  ``processes``) runs the shard tasks;
* per-query merge functions (:mod:`repro.parallel.merge`) fold partials;
* every fan-out is instrumented on the executor's
  :class:`~repro.obs.PipelineStats`: ``shard_count`` / ``merge_ms``
  counters plus ``shard_fanout`` / ``shard_scan`` / ``merge`` stage
  timers (per-shard wall times are measured inside the workers and
  recorded by the parent, so they are honest across processes).

What a fan-out needs lives as long as the executor, not as long as one
call (``docs/storage.md``, "Zero-copy process shards"):

* the **pool** belongs to the backend instance — built by the first
  fan-out, reused by every later one, replaced after a broken worker or
  an abandoned straggler;
* the **partition and its shared-memory image** are kept per ``(table,
  table version, rows, shard count, partitioner)`` in a cache of
  :data:`RESIDENT_TABLES` entries, each dying with its table — an append
  bumps the version and misses, a one-shot table pins nothing;
* each **worker** keeps the shards it opened and their segment tables
  (:func:`repro.parallel.shm.open_shard`), so a restricted scan ships
  its window or instant set and masks the resident shard instead of
  partitioning a freshly masked table;
* the ``/dev/shm`` **name** alone is per fan-out, as before: published
  from the cached image, unlinked in the same ``finally``.

:meth:`ShardedExecutor.close` (or ``with``) shuts the pool down and
drops the cache; an executor that is simply dropped is cleaned up by the
backend's finalizer.

The executor is not a second query path: the through-count
(:func:`repro.query.evaluator.execute_through`) hands its scan leaf to
:meth:`ShardedExecutor.matching_objects` when an executor is part of the
plan — the planner's ``sharded`` strategy with its shard count, the
route-first front-ends with the executor's own — and
:class:`ShardedPietQLExecutor` gives Piet-QL's ``THROUGH RESULT`` the
same executor instead of scanning itself.  Store builds are the same
fan-out: :meth:`ShardedExecutor.build_store` builds either kind of
:class:`~repro.cellstore.GranuleStore` shard by shard with one task
function, and the POI aggregates (:mod:`repro.query.poi`) take their
``sharded`` strategy from the executor they are passed.

Correctness is guarded externally: ``tests/parallel/oracle.py`` runs
every covered query through the seed serial path and every backend and
asserts result equality.  Semantics note: trajectory queries must shard
by *objects* — ``partition_by_time`` cuts trajectories at shard
boundaries and loses the interpolated segments that cross a cut.

Failure semantics (the resilient layer): the executor's
``failure_mode`` (``raise`` / ``retry`` / ``degrade``) plus an optional
:class:`~repro.parallel.backends.RetryPolicy` govern what a stalling,
dying or corrupt shard task does to the run — bounded deterministic
retries, per-task timeouts, and backend degradation ``processes`` →
``serial``.  Every fan-out verifies result completeness
before merging: the engine either returns an answer bit-equal to the
serial scan or raises a typed
:class:`~repro.errors.ShardExecutionError`; a partial merge is
impossible.  ``tests/faults`` enforces this under seeded
:class:`~repro.faults.FaultPlan` chaos.

Worker task functions live at module level and their payloads are
picklable, as the ``processes`` backend requires.  There is one task
function per kind of shard work: its payload carries either the shard
itself (pickled transport) or a :class:`~repro.parallel.shm
.ShardDescriptor` (zero-copy transport: O(1) pickled bytes per task
instead of O(rows)), and :func:`~repro.parallel.shm.open_shard` hides
which.  Pickles of an executor carry its configuration, never its pool,
lock or cache (Piet-QL's condition tasks ship their executor).
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from functools import partial
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    TypeVar,
)

from repro.cellstore import GranuleStore
from repro.errors import (
    EvaluationError,
    MoftStorageError,
    ShardExecutionError,
)
from repro.mo.moft import MOFT
from repro.obs import EvaluationStats, PipelineStats
from repro.parallel.backends import (
    ExecutionBackend,
    RetryPolicy,
    available_cpus,
    get_backend,
    resilient_map,
)
from repro.parallel.merge import intersect_ids, sum_groups, union_ids
from repro.parallel.shm import ShardImage, open_shard, serialize_shards
from repro.pietql import ast as pietql_ast
from repro.pietql.executor import LayerBinding, PietQLExecutor
from repro.preagg.store import PreAggStore
from repro.query.evaluator import (
    TimeRestriction,
    TrajectoryIntersectionCounter,
    count_objects_through,
    restriction_mask,
)
from repro.query.region import EvaluationContext

V = TypeVar("V")
M = TypeVar("M")

#: A shard task's return: (value, worker wall seconds, worker stats).
ShardOutcome = Tuple[V, float, Optional[PipelineStats]]

#: Table versions whose shards (and image) an executor keeps.
RESIDENT_TABLES = 4


# -- module-level worker tasks (picklable for the processes backend) ----------


def _scan_task(payload) -> ShardOutcome[Set[Hashable]]:
    """Run a trajectory-intersection scan over one MOFT shard, masked
    by the query's time restriction when it has one."""
    counter, shard, restriction = payload
    stats = EvaluationStats()
    start = time.perf_counter()
    table = open_shard(shard)
    if restriction is not None:
        # A resident shard has its segment index already; the masked
        # child filters that instead of sorting its own.
        table.segment_index()
        t, _, _ = table.as_arrays()
        table = table.mask_rows(restriction_mask(t, *restriction))
    matched = counter.matching_objects(table, stats)
    return matched, time.perf_counter() - start, stats


def _condition_task(
    payload: Tuple[PietQLExecutor, "pietql_ast.GeoCondition", "pietql_ast.LayerRef"]
) -> ShardOutcome[Set[Hashable]]:
    """Answer one Piet-QL WHERE condition to target-element ids."""
    executor, condition, target_ref = payload
    start = time.perf_counter()
    ids = executor._condition_ids(condition, target_ref)
    return ids, time.perf_counter() - start, None


def _apply_task(payload) -> ShardOutcome:
    """Apply a user shard function (module-level for processes) to a shard."""
    fn, shard = payload
    start = time.perf_counter()
    value = fn(open_shard(shard))
    return value, time.perf_counter() - start, None


def _build_store_task(payload) -> ShardOutcome:
    """Build a granule store (the class the payload names, with its
    constructor arguments) over one object shard of a MOFT."""
    cls, shard, time_dim, granule_level, geometries, options = payload
    stats = PipelineStats()
    start = time.perf_counter()
    store = cls(
        open_shard(shard), time_dim, granule_level, geometries,
        obs=stats, **options,
    )
    return store, time.perf_counter() - start, stats


class _ResidentShards:
    """One table version's non-empty shards; ``image`` is their
    serialized form once a zero-copy fan-out asked for it (False: the
    object ids cannot be encoded).  ``table`` is a weak reference whose
    callback evicts the entry."""

    __slots__ = ("table", "shards", "image")

    def __init__(self, table: "weakref.ref[MOFT]", shards: List[MOFT]) -> None:
        self.table = table
        self.shards = shards
        self.image: "ShardImage | bool | None" = None


def _resident_key(moft: MOFT, n_shards: int, partition: str) -> tuple:
    """What one partition is cached under: the table object as it
    stands (appends move version and rows), the cut asked for."""
    return (id(moft), moft.version, len(moft), n_shards, partition)


def _forget(executor: "weakref.ref[ShardedExecutor]", key: tuple, _) -> None:
    """A cached table died: its shards go with it."""
    executor = executor()
    if executor is not None:
        with executor._lock:
            executor._resident.pop(key, None)


class ShardedExecutor:
    """Fans MOFT query work out over shards and merges exact partials.

    Parameters
    ----------
    backend:
        ``"serial"`` / ``"processes"`` or an
        :class:`~repro.parallel.backends.ExecutionBackend` instance.
    n_shards:
        How many shards to cut inputs into (default: available CPUs).
    max_workers:
        Pool size cap for the process backend.
    obs:
        Observer receiving fan-out instrumentation; a fresh
        :class:`~repro.obs.PipelineStats` when omitted.  Pass
        ``context.obs`` to fold shard metrics into a context's pipeline
        report.
    failure_mode:
        What a failing shard task does to the run: ``"raise"`` (the
        default — fail fast with a typed
        :class:`~repro.errors.ShardExecutionError`), ``"retry"``
        (bounded retries per :class:`RetryPolicy`, then the typed
        error), or ``"degrade"`` (retries, then step the backend down
        to ``serial`` before giving up).
        Whatever the mode, the answer contract is *exact-or-error*: a
        merged result always accounts for every shard.
    retry_policy:
        Timeout/retry/backoff knobs for the resilient modes (default:
        :class:`RetryPolicy()` — 2 retries, no timeout, no backoff).
    fault_plan:
        A :class:`~repro.faults.FaultPlan` injecting deterministic
        faults into shard attempts (testing only).  Setting a plan
        routes execution through the resilient path even under
        ``failure_mode="raise"`` so injected faults surface as typed
        errors carrying the trace.
    zero_copy:
        Whether MOFT shard fan-outs ship shards as shared-memory
        descriptors (:mod:`repro.parallel.shm`) instead of pickled
        tables.  ``None`` (default) enables it exactly for the
        ``processes`` backend, where crossing the pool boundary copies;
        ``True``/``False`` force it.  Worlds whose object ids the
        columnar format cannot encode fall back to pickled shards
        transparently.
    track_payload_bytes:
        When True, every fan-out records the pickled size of its task
        payloads on the observer: ``bytes_serialized`` (counter, total
        across fan-outs) and ``peak_shard_payload_bytes`` (gauge, the
        largest single payload seen).  Off by default — measuring costs
        a serialization pass, so only benchmarks/diagnostics turn it on.
    """

    def __init__(
        self,
        backend: "str | ExecutionBackend" = "serial",
        n_shards: Optional[int] = None,
        max_workers: Optional[int] = None,
        obs: Optional[PipelineStats] = None,
        failure_mode: str = "raise",
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[object] = None,
        zero_copy: Optional[bool] = None,
        track_payload_bytes: bool = False,
    ) -> None:
        self.backend = get_backend(backend, max_workers)
        self.n_shards = n_shards if n_shards is not None else available_cpus()
        if self.n_shards < 1:
            raise EvaluationError(
                f"shard count must be >= 1, got {self.n_shards}"
            )
        if failure_mode not in ("raise", "retry", "degrade"):
            raise EvaluationError(
                f"unknown failure mode {failure_mode!r}; "
                f"expected 'raise', 'retry' or 'degrade'"
            )
        self.obs = obs if obs is not None else PipelineStats()
        self.failure_mode = failure_mode
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan
        self.zero_copy = zero_copy
        self.track_payload_bytes = track_payload_bytes
        self._start_empty()

    def _start_empty(self) -> None:
        # Reentrant: a table collected while the lock is held runs
        # ``_forget`` on the holding thread.
        self._lock = threading.RLock()
        self._resident: "OrderedDict[tuple, _ResidentShards]" = OrderedDict()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_lock"], state["_resident"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._start_empty()

    def close(self) -> None:
        """Shut the backend's pool down (waiting for its workers to end)
        and drop every resident shard.  Idempotent, and not final: the
        next fan-out builds both again."""
        self.backend.close()
        with self._lock:
            self._resident.clear()

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedExecutor(backend={self.backend.name!r}, "
            f"n_shards={self.n_shards}, "
            f"failure_mode={self.failure_mode!r})"
        )

    # -- the generic fan-out/merge step ---------------------------------------

    def _use_zero_copy(self) -> bool:
        """Effective zero-copy setting (default: processes backend only)."""
        if self.zero_copy is not None:
            return self.zero_copy
        return self.backend.name == "processes"

    def _account_payloads(self, payloads: Sequence[object]) -> None:
        """Record pickled payload sizes when ``track_payload_bytes`` is on."""
        if not self.track_payload_bytes or not payloads:
            return
        import pickle

        sizes = [
            len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
            for payload in payloads
        ]
        self.obs.incr("bytes_serialized", sum(sizes))
        self.obs.gauge(
            "peak_shard_payload_bytes",
            max(self.obs.count("peak_shard_payload_bytes"), max(sizes)),
        )

    def _shards(
        self, moft: MOFT, n_shards: int, partition: str = "objects"
    ) -> _ResidentShards:
        """The non-empty shards of ``moft`` as it stands: cut on the
        first request per (table, version, rows, shard count,
        partitioner), kept until the table dies, changes or is pushed
        out by :data:`RESIDENT_TABLES` more recently used ones."""
        key = _resident_key(moft, n_shards, partition)
        with self._lock:
            entry = self._resident.get(key)
            if entry is not None:
                self._resident.move_to_end(key)
                self.obs.incr("shard_cache_hits")
                return entry
            self.obs.incr("shard_cache_misses")
            # Versions only grow: what was cut from an earlier state of
            # this table can never be asked for again.
            for stale in [
                k for k in self._resident
                if k[0] == key[0] and k[1:3] != key[1:3]
            ]:
                del self._resident[stale]
            cut = getattr(moft, f"partition_by_{partition}")
            entry = self._resident[key] = _ResidentShards(
                weakref.ref(moft, partial(_forget, weakref.ref(self), key)),
                [shard for shard in cut(n_shards) if len(shard)],
            )
            while len(self._resident) > RESIDENT_TABLES:
                self._resident.popitem(last=False)
            return entry

    def holds_shards(self, moft: MOFT, n_shards: Optional[int] = None) -> bool:
        """Whether a scan of ``moft`` over ``n_shards`` object shards
        (default: the executor's count) would find them resident — what
        the cost model asks before charging for partition and image."""
        key = _resident_key(
            moft, n_shards if n_shards is not None else self.n_shards,
            "objects",
        )
        with self._lock:
            return key in self._resident

    def _image(self, resident: _ResidentShards) -> Optional[ShardImage]:
        """The shards' shared-memory image, serialized on first use
        (None: the columnar format cannot encode the object ids)."""
        with self._lock:
            if resident.image is None:
                try:
                    resident.image = serialize_shards(resident.shards)
                except MoftStorageError:
                    resident.image = False
            return resident.image or None

    def _fanout_shards(
        self,
        resident: _ResidentShards,
        make_payload: Callable[[object], object],
        task: Callable,
        merge: Callable[[List[M]], object],
        observers: Sequence[PipelineStats] = (),
    ) -> object:
        """Fan shard work out, shipping shards zero-copy when enabled.

        ``make_payload`` builds one task payload from either a MOFT
        shard (pickle path) or a :class:`~repro.parallel.shm
        .ShardDescriptor` (zero-copy path); ``task`` opens whichever it
        gets.  The image is the resident one, but the shared block it is
        published in lives exactly as long as this fan-out: it is
        unlinked in a ``finally``, so neither task failures, retries,
        nor injected faults can leak a segment.  Worlds the columnar
        format cannot encode (exotic object-id types) fall back to
        pickled shards.
        """
        block = None
        carried: Sequence[object] = resident.shards
        if self._use_zero_copy():
            image = self._image(resident)
            if image is None:
                self.obs.incr("zero_copy_fallbacks")
            else:
                block, carried = image.publish()
        try:
            payloads = [make_payload(shard) for shard in carried]
            self._account_payloads(payloads)
            if block is not None:
                self.obs.incr("zero_copy_blocks")
            return self.map_shards(task, payloads, merge, observers=observers)
        finally:
            if block is not None:
                block.close()

    def _resilient(self) -> bool:
        """Whether fan-outs route through the retry/fault-injection path."""
        return (
            self.failure_mode != "raise"
            or self.retry_policy is not None
            or self.fault_plan is not None
        )

    def map_shards(
        self,
        fn: Callable[[V], ShardOutcome[M]],
        payloads: Sequence[V],
        merge: Callable[[List[M]], object],
        observers: Sequence[PipelineStats] = (),
    ) -> object:
        """Run shard tasks on the backend and merge their values.

        ``fn`` must be a module-level function returning a
        :data:`ShardOutcome` triple; per-shard wall times land in the
        ``shard_scan`` stage and any worker stats are folded into the
        executor's observer (plus ``observers``).

        Every shard is verified accounted for before the merge runs: a
        dropped or failed shard raises
        :class:`~repro.errors.ShardExecutionError` (possibly after the
        configured retries/degradation) — it can never silently
        under-count.  With the default ``failure_mode="raise"``, no
        retry policy and no fault plan, the fan-out is the plain
        ``backend.map`` call of the seed path: zero added per-task
        overhead.
        """
        targets = [self.obs] + [
            extra for extra in observers if extra is not self.obs
        ]
        for observer in targets:
            observer.incr("shard_count", len(payloads))
        with self.obs.stage("shard_fanout"):
            if self._resilient():
                outcomes = resilient_map(
                    self.backend,
                    fn,
                    payloads,
                    policy=self.retry_policy,
                    plan=self.fault_plan,
                    obs=self.obs,
                    failure_mode=self.failure_mode,
                )
            else:
                try:
                    outcomes = self.backend.map(fn, payloads)
                except ShardExecutionError:
                    raise
                except Exception as exc:
                    raise ShardExecutionError(
                        f"shard fan-out failed on backend "
                        f"{self.backend.name!r}: {exc!r}"
                    ) from exc
        if len(outcomes) != len(payloads):
            raise ShardExecutionError(
                f"result-completeness check failed: backend "
                f"{self.backend.name!r} returned {len(outcomes)} "
                f"outcomes for {len(payloads)} shards"
            )
        values: List[M] = []
        for value, seconds, stats in outcomes:
            for observer in targets:
                observer.record("shard_scan", seconds)
                if stats is not None:
                    observer.merge(stats)
            values.append(value)
        start = time.perf_counter()
        merged = merge(values)
        elapsed = time.perf_counter() - start
        for observer in targets:
            observer.record("merge", elapsed)
            observer.incr("merge_ms", int(round(elapsed * 1000)))
        return merged

    # -- trajectory queries ----------------------------------------------------

    def matching_objects(
        self,
        counter: TrajectoryIntersectionCounter,
        moft: MOFT,
        stats: Optional[EvaluationStats] = None,
        n_shards: Optional[int] = None,
        restriction: Optional[TimeRestriction] = None,
    ) -> Set[Hashable]:
        """Sharded :meth:`TrajectoryIntersectionCounter.matching_objects`.

        The MOFT is partitioned by objects (each object's whole history in
        one shard, preserving interpolation semantics); per-shard matched
        sets are disjoint, so their union is the exact serial answer.
        ``n_shards`` overrides the executor's configured shard count for
        this one scan — the cost-based planner passes its chosen count
        here without reconstructing the executor.

        ``restriction`` is a ``(window, instants)`` pair (see
        :func:`repro.query.evaluator.restriction_mask`): every shard
        task masks its rows by it before scanning.  A row predicate
        commutes with a partition by objects, so the answer is that of
        scanning ``moft`` masked — but the shards are those of ``moft``
        itself, which stay resident from query to query where a masked
        table would be a new one each time.
        """
        resident = self._shards(
            moft, n_shards if n_shards is not None else self.n_shards
        )
        if not resident.shards:
            return set()
        observers = (stats,) if stats is not None else ()
        return self._fanout_shards(
            resident,
            lambda shard: (counter, shard, restriction),
            _scan_task,
            union_ids,
            observers=observers,
        )

    def count_objects_through(
        self,
        context: EvaluationContext,
        target: Tuple[str, str],
        constraints: Sequence[Tuple[str, Tuple[str, str]]],
        moft_name: str = "FM",
        use_index: bool = True,
        early_exit: bool = True,
        stats: Optional[EvaluationStats] = None,
        vectorized: bool = True,
        window: Optional[Tuple[float, float]] = None,
        use_preagg: bool = True,
    ) -> int:
        """Sharded Section 5 pipeline; same signature and semantics as
        :func:`repro.query.evaluator.count_objects_through`.

        The geometric subquery stays serial (it is cheap against the
        overlay and not shardable by MOFT rows); only the trajectory scan
        fans out — including the residual sliver scan when a pre-agg
        store answers the covered part of a window.
        """
        return count_objects_through(
            context,
            target,
            constraints,
            moft_name=moft_name,
            use_index=use_index,
            early_exit=early_exit,
            stats=stats,
            vectorized=vectorized,
            executor=self,
            window=window,
            use_preagg=use_preagg,
        )

    def build_store(
        self,
        cls: Type[GranuleStore],
        moft: MOFT,
        time_dim,
        granule_level: str,
        geometries: Mapping[Hashable, object],
        obs: Optional[PipelineStats] = None,
        **store_options,
    ):
        """Build a ``cls`` store (:class:`~repro.preagg.PreAggStore` or
        :class:`~repro.poi.PoiVisitStore`) shard by shard.

        The MOFT is partitioned by objects; each shard builds its own
        store with ``store_options`` as ``cls``'s keyword arguments (the
        expensive scans run on the backend) and the partials merge by
        :meth:`~repro.cellstore.GranuleStore.merge`, which is exact
        because the object sets are disjoint and refuses a missing or
        truncated shard.  The merged store's staleness snapshot is taken
        from the parent MOFT *before* the cut, so appends racing the
        build are detected as stale.  ``obs`` is the caller's observer:
        the workers count into their own, folded into it (and the
        executor's) once.
        """
        snapshot = (moft.version, len(moft))
        resident = self._shards(moft, self.n_shards)
        if not resident.shards:
            return cls(
                moft, time_dim, granule_level, geometries,
                obs=obs, **store_options,
            )
        geometries = dict(geometries)
        # (The shard stores of a process backend watch unpickled copies
        # of ``time_dim``; the merged store watches the caller's.)
        return self._fanout_shards(
            resident,
            lambda shard: (
                cls, shard, time_dim, granule_level, geometries,
                store_options,
            ),
            _build_store_task,
            lambda stores: cls.merge(stores, moft, snapshot, time=time_dim),
            observers=(obs,) if obs is not None else (),
        )

    def build_preagg_store(
        self,
        moft: MOFT,
        time_dim,
        granule_level: str,
        geometries: Dict[Hashable, object],
        layer: Optional[str] = None,
        kind: Optional[str] = None,
        name: Optional[str] = None,
    ):
        """:meth:`build_store` of a :class:`~repro.preagg.PreAggStore`."""
        return self.build_store(
            PreAggStore, moft, time_dim, granule_level, geometries,
            layer=layer, kind=kind, name=name,
        )

    # -- generic sharded aggregation -------------------------------------------

    def aggregate_moft(
        self,
        moft: MOFT,
        shard_fn: Callable[[MOFT], M],
        merge: Callable[[List[M]], object] = sum_groups,
        partition: str = "objects",
    ) -> object:
        """Fan a per-shard aggregation over a partitioned MOFT.

        ``shard_fn`` maps one shard to a partial (e.g. a ``group -> sum``
        dict) and must be a module-level function under the ``processes``
        backend; it must not modify the shard, which stays resident for
        the next fan-out.  ``merge`` folds the partials (default:
        per-group sum).
        ``partition`` picks the partitioner: ``"objects"`` keeps whole
        trajectories together, ``"time"`` cuts contiguous instant ranges
        (exact only for queries that treat samples independently).
        """
        if partition not in ("objects", "time"):
            raise EvaluationError(
                f"unknown partition {partition!r}; expected 'objects' or 'time'"
            )
        resident = self._shards(moft, self.n_shards, partition)
        if not resident.shards:
            return merge([])
        return self._fanout_shards(
            resident,
            lambda shard: (shard_fn, shard),
            _apply_task,
            merge,
        )


class ShardedPietQLExecutor(PietQLExecutor):
    """A :class:`PietQLExecutor` whose expensive steps fan out over shards.

    * the geometric part evaluates its WHERE conditions as parallel tasks
      and intersects their id sets (exact: conjunction is condition-wise);
    * ``THROUGH RESULT`` trajectory scans shard the MOFT by objects and
      union the per-shard matched sets: the base class hands
      ``self.sharded`` to the through-count
      (:func:`repro.query.evaluator.execute_through`), so a scan — or
      the sliver scan beside a store read — fans out, and a store-served
      answer fans nothing out.

    By default the sharded executor reports into ``context.obs``, so
    ``shard_count`` / ``merge_ms`` and the shard stage timers appear next
    to the usual pipeline counters.
    """

    def __init__(
        self,
        context: EvaluationContext,
        bindings: "Dict[str, LayerBinding] | None" = None,
        sharded: Optional[ShardedExecutor] = None,
        backend: "str | ExecutionBackend" = "serial",
        n_shards: Optional[int] = None,
        max_workers: Optional[int] = None,
        failure_mode: str = "raise",
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[object] = None,
    ) -> None:
        super().__init__(context, bindings)
        self.sharded = sharded or ShardedExecutor(
            backend=backend,
            n_shards=n_shards,
            max_workers=max_workers,
            obs=context.obs,
            failure_mode=failure_mode,
            retry_policy=retry_policy,
            fault_plan=fault_plan,
        )

    def _execute_geometric(
        self, geo: "pietql_ast.GeometricQuery"
    ) -> Set[Hashable]:
        if len(geo.conditions) <= 1:
            return super()._execute_geometric(geo)
        payloads = [
            (self, condition, geo.target) for condition in geo.conditions
        ]
        return self.sharded.map_shards(
            _condition_task, payloads, intersect_ids
        )


__all__ = [
    "ShardOutcome",
    "ShardedExecutor",
    "ShardedPietQLExecutor",
]
