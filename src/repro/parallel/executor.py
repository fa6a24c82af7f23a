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
  table version, rows, shard count)`` in a cache of
  :data:`RESIDENT_TABLES` entries, each dying with its table — an append
  bumps the version and misses, a one-shot table pins nothing;
* each **worker** keeps the shards it opened and their segment tables
  (:func:`repro.parallel.shm.open_shard`), so a restricted scan ships
  its window or instant set and masks the resident shard instead of
  partitioning a freshly masked table; a scan's geometry state is the
  one its process's copy of the layer keeps
  (:meth:`repro.gis.layer.Layer.answer`), so a scan task carries its
  answer's key, never its geometries, unless re-sent;
* the ``/dev/shm`` **name** is per fan-out, and only a fan-out that
  needs one has it: the first fan-out over an image publishes it; a
  later one sends key-only descriptors and publishes the image only
  when some worker reports it missing, re-sending just those tasks
  (:func:`~repro.parallel.backends.resilient_map`).  Either way the
  block is unlinked in the same ``finally``.

:meth:`ShardedExecutor.close` (or ``with``) shuts the pool down and
drops the cache; an executor that is simply dropped is cleaned up by the
backend's finalizer.

The executor alone decides how shards run, each in one place: every
fan-out cuts its table into the executor's ``n_shards`` object shards
(the planner prices and records that count, it does not choose one),
reaches the backend through one :func:`~repro.parallel.backends
.resilient_map` call, and ships shards as shared-memory descriptors
exactly when the backend is ``processes``.

The executor is not a second query path: the one executor of every
leaf (:func:`repro.query.evaluator.execute`) hands its scan leaf to
:meth:`ShardedExecutor.matching_objects` when an executor is part of the
plan — the planner's ``sharded`` strategy, or the
:func:`~repro.query.evaluator.store_or_scan` of a front-end handed one —
and :class:`ShardedPietQLExecutor` gives Piet-QL's
``THROUGH RESULT`` the same executor instead of scanning itself.  Store
builds are the same fan-out: :meth:`ShardedExecutor.build_store` builds
either kind of :class:`~repro.cellstore.GranuleStore` shard by shard
with one task function, and the POI aggregates (:mod:`repro.query.poi`)
take their ``sharded`` strategy from the executor they are passed.

Correctness is guarded externally: ``tests/parallel/oracle.py`` runs
every covered query through the seed serial path and every backend and
asserts result equality.  Shards hold whole objects, so no trajectory
segment is lost to a cut.

Failure semantics (the resilient layer): the executor's
``failure_mode`` (``raise`` / ``retry`` / ``degrade``) plus an optional
:class:`~repro.parallel.backends.RetryPolicy` govern what a stalling,
dying or corrupt shard task does to the run — no retries, bounded
deterministic retries with per-task timeouts, or those plus backend
degradation ``processes`` → ``serial``.  Every fan-out verifies result
completeness before merging: the engine either returns an answer
bit-equal to the serial scan or raises a typed
:class:`~repro.errors.ShardExecutionError`; a partial merge is
impossible.  ``tests/faults`` enforces this under seeded
:class:`~repro.faults.FaultPlan` chaos.

Worker task functions live at module level and their payloads are
picklable, as the ``processes`` backend requires.  There is one task
function per kind of shard work: its payload carries either the shard
itself (in-process backends, and object ids the columnar format cannot
encode) or a :class:`~repro.parallel.shm.ShardDescriptor` (O(1) pickled
bytes per task instead of O(rows)), and
:func:`~repro.parallel.shm.open_shard` hides which.  Pickles of an
executor carry its configuration, never its pool, lock or cache.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from functools import partial
from itertools import chain
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
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
from repro.mo.moft import MOFT, ObjectSet
from repro.obs import EvaluationStats, PipelineStats
from repro.parallel.backends import (
    ExecutionBackend,
    RetryPolicy,
    available_cpus,
    get_backend,
    resilient_map,
)
from repro.parallel.merge import sum_groups
from repro.parallel.shm import (
    ShardDescriptor,
    ShardImage,
    open_shard,
    serialize_shards,
)
from repro.pietql.executor import LayerBinding, PietQLExecutor
from repro.preagg.store import PreAggStore
from repro.query.evaluator import (
    Leaf,
    TimeRestriction,
    TrajectoryIntersectionCounter,
    restriction_mask,
    store_or_scan,
)
from repro.query.region import EvaluationContext

V = TypeVar("V")
M = TypeVar("M")

#: A shard task's return: (value, worker wall seconds, worker stats).
ShardOutcome = Tuple[V, float, Optional[PipelineStats]]

#: Table versions whose shards (and image) an executor keeps.
RESIDENT_TABLES = 4


# -- module-level worker tasks (picklable for the processes backend) ----------


def _scan_task(payload) -> ShardOutcome[List[Hashable]]:
    """Run a trajectory-intersection scan over one MOFT shard, masked
    by the query's time restriction when it has one.  A counter that
    travelled as its answer's key finds its geometry state here at the
    scan (or raises :class:`~repro.errors.ShardMissing`).  The matched
    objects go back as ids: the shard's codes are not its parent's."""
    counter, shard, restriction = payload
    stats = EvaluationStats()
    start = time.perf_counter()
    table = open_shard(shard)
    # A resident shard has its segment index and instant codes already:
    # the scan reads that index under the restriction's row mask.
    rows = None if restriction is None else restriction_mask(table, *restriction)
    matched = list(counter.matching_objects(table, stats, rows=rows))
    return matched, time.perf_counter() - start, stats


def _apply_task(payload) -> ShardOutcome:
    """Apply a user shard function (module-level for processes) to a shard."""
    fn, shard = payload
    start = time.perf_counter()
    value = fn(open_shard(shard))
    return value, time.perf_counter() - start, None


def _build_store_task(payload) -> ShardOutcome:
    """Build a granule store (the class the payload names, with its
    constructor arguments) over one object shard of a MOFT.  The store
    goes back without its shard table: the merge reads only the merged
    table."""
    cls, shard, time_dim, granule_level, geometries, options = payload
    stats = PipelineStats()
    start = time.perf_counter()
    store = cls(
        open_shard(shard), time_dim, granule_level, geometries,
        obs=stats, **options,
    )
    store.moft = None
    return store, time.perf_counter() - start, stats


class _ResidentShards:
    """One table version's non-empty shards; ``image`` is their
    serialized form once a ``processes`` fan-out asked for it (False:
    the object ids cannot be encoded), and ``sent`` whether a fan-out
    has published it.  ``table`` is a weak reference whose callback
    evicts the entry."""

    __slots__ = ("table", "shards", "image", "sent")

    def __init__(self, table: "weakref.ref[MOFT]", shards: List[MOFT]) -> None:
        self.table = table
        self.shards = shards
        self.image: "ShardImage | bool | None" = None
        self.sent = False


def _resident_key(moft: MOFT, n_shards: int) -> tuple:
    """What one partition is cached under: the table object as it
    stands (appends move version and rows), the shard count."""
    return (id(moft), moft.version, len(moft), n_shards)


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
        :class:`~repro.parallel.backends.ExecutionBackend` instance
        (a process pool sized otherwise than by the CPUs is a
        ``ProcessBackend(max_workers=...)`` handed in).  On
        ``processes`` shards travel as shared-memory descriptors, on
        any other backend as the tables themselves.
    n_shards:
        How many object shards every fan-out cuts its table into
        (default: available CPUs); empty shards are not shipped.
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
        faults into shard attempts (testing only); injected faults
        surface as typed errors carrying the trace.
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
        obs: Optional[PipelineStats] = None,
        failure_mode: str = "raise",
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[object] = None,
        track_payload_bytes: bool = False,
    ) -> None:
        self.backend = get_backend(backend)
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

    def _shards(self, moft: MOFT) -> _ResidentShards:
        """The non-empty object shards of ``moft`` as it stands: cut on
        the first request per (table, version, rows, shard count), kept
        until the table dies, changes or is pushed out by
        :data:`RESIDENT_TABLES` more recently used ones."""
        key = _resident_key(moft, self.n_shards)
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
            entry = self._resident[key] = _ResidentShards(
                weakref.ref(moft, partial(_forget, weakref.ref(self), key)),
                [
                    shard for shard in moft.partition_by_objects(self.n_shards)
                    if len(shard)
                ],
            )
            while len(self._resident) > RESIDENT_TABLES:
                self._resident.popitem(last=False)
            return entry

    def holds_shards(self, moft: MOFT) -> bool:
        """Whether a fan-out over ``moft`` would find its shards
        resident — what the cost model asks before charging for
        partition and image."""
        with self._lock:
            return _resident_key(moft, self.n_shards) in self._resident

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
        make_payload: Callable[[object, bool], object],
        task: Callable,
        merge: Callable[[List[M]], object],
        observers: Sequence[PipelineStats] = (),
    ) -> object:
        """Fan shard work out; on ``processes`` shards travel zero-copy.

        ``make_payload`` builds one task payload from either a MOFT
        shard or a :class:`~repro.parallel.shm.ShardDescriptor`, and
        whether the task is re-sent; ``task`` opens whichever it gets.
        The image is the resident one.  Its first fan-out publishes it
        in a shared block; a later one sends key-only descriptors, which
        the workers that opened the image answer from what they hold,
        and publishes a block only for the tasks whose worker reports
        something missing (re-sent by
        :func:`~repro.parallel.backends.resilient_map`: the image, or a
        scan counter's layer, whose geometries the re-sent payload
        carries too).
        A block lives exactly as long as the fan-out that published it:
        it is unlinked in a ``finally``, so neither task failures,
        retries, nor injected faults can leak a segment.  Worlds the
        columnar format cannot encode (exotic object-id types) fall
        back to pickled shards.
        """
        def payloads_of(
            shards: Sequence[object], resent: bool = False
        ) -> List[object]:
            payloads = [make_payload(shard, resent) for shard in shards]
            self._account_payloads(payloads)
            return payloads

        image = None
        if self.backend.name == "processes":
            image = self._image(resident)
            if image is None:
                self.obs.incr("zero_copy_fallbacks")
        if image is None:
            shards = resident.shards
            return self.map_shards(
                task, payloads_of(shards), merge, observers=observers,
                resend=lambda tasks: payloads_of(
                    [shards[i] for i in tasks], True
                ),
            )
        block = descriptors = None  # this fan-out's one block, if any

        def published() -> List[ShardDescriptor]:
            nonlocal block, descriptors
            if block is None:
                block, descriptors = image.publish()
                self.obs.incr("zero_copy_blocks")
            return descriptors

        try:
            carried = image.descriptors() if resident.sent else published()
            resident.sent = True
            return self.map_shards(
                task, payloads_of(carried), merge, observers=observers,
                resend=lambda tasks: payloads_of(
                    [published()[i] for i in tasks], True
                ),
            )
        finally:
            if block is not None:
                block.close()

    def map_shards(
        self,
        fn: Callable[[V], ShardOutcome[M]],
        payloads: Sequence[V],
        merge: Callable[[List[M]], object],
        observers: Sequence[PipelineStats] = (),
        resend: Optional[Callable[[List[int]], Sequence[V]]] = None,
    ) -> object:
        """Run shard tasks on the backend and merge their values.

        ``fn`` must be a module-level function returning a
        :data:`ShardOutcome` triple; per-shard wall times land in the
        ``shard_scan`` stage and any worker stats are folded into the
        executor's observer (plus ``observers``).  ``resend`` is
        :func:`~repro.parallel.backends.resilient_map`'s: the payloads
        of tasks whose worker lacked the shard image or a scan
        counter's layer, with a block and the geometries.

        The tasks reach the backend through
        :func:`~repro.parallel.backends.resilient_map` under the
        executor's failure mode, and every shard is verified accounted
        for before the merge runs: a dropped or failed shard raises
        :class:`~repro.errors.ShardExecutionError` (after the configured
        retries/degradation, if any) — it can never silently
        under-count.
        """
        targets = [self.obs] + [
            extra for extra in observers if extra is not self.obs
        ]
        for observer in targets:
            observer.incr("shard_count", len(payloads))
        with self.obs.stage("shard_fanout"):
            outcomes = resilient_map(
                self.backend,
                fn,
                payloads,
                policy=self.retry_policy,
                plan=self.fault_plan,
                obs=self.obs,
                failure_mode=self.failure_mode,
                resend=resend,
            )
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
        restriction: Optional[TimeRestriction] = None,
    ) -> ObjectSet:
        """Sharded :meth:`TrajectoryIntersectionCounter.matching_objects`.

        The MOFT is partitioned by objects (each object's whole history in
        one shard, preserving interpolation semantics); per-shard matched
        sets are disjoint, so their union is the exact serial answer.
        The shards answer in ids, which the merge encodes once against
        ``moft``: the answer is codes into it, as the serial scan's.

        ``restriction`` is a ``(window, instants)`` pair (see
        :func:`repro.query.evaluator.restriction_mask`): every shard
        task masks its rows by it before scanning.  A row predicate
        commutes with a partition by objects, so the answer is that of
        scanning ``moft`` masked — but the shards are those of ``moft``
        itself, which stay resident from query to query where a masked
        table would be a new one each time.
        """
        resident = self._shards(moft)
        if not resident.shards:
            return moft.encode(())
        observers = (stats,) if stats is not None else ()
        return self._fanout_shards(
            resident,
            lambda shard, resent: (
                counter.carrying() if resent else counter, shard, restriction
            ),
            _scan_task,
            lambda found: moft.encode(chain.from_iterable(found)),
            observers=observers,
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
        resident = self._shards(moft)
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
            lambda shard, _: (
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
    ) -> object:
        """Fan a per-shard aggregation over the object shards of a MOFT.

        ``shard_fn`` maps one shard to a partial (e.g. a ``group -> sum``
        dict) and must be a module-level function under the ``processes``
        backend; it must not modify the shard, which stays resident for
        the next fan-out.  ``merge`` folds the partials (default:
        per-group sum).
        """
        resident = self._shards(moft)
        if not resident.shards:
            return merge([])
        return self._fanout_shards(
            resident,
            lambda shard, _: (shard_fn, shard),
            _apply_task,
            merge,
        )


class ShardedPietQLExecutor(PietQLExecutor):
    """A :class:`PietQLExecutor` whose trajectory work fans out over shards.

    The WHERE conditions are answered in-process against the overlay,
    where they are cheap; ``THROUGH RESULT`` scans go to ``sharded``
    (default: a ``serial`` executor reporting into ``context.obs``, so
    ``shard_count`` / ``merge_ms`` and the shard stage timers appear next
    to the usual pipeline counters): the plan is forced to the store
    when one serves (nothing fans out), else to ``sharded``, else — an
    empty geometric answer — to the grid scan.  POI builds take
    ``sharded`` as their candidate, as under the base class.  A plain
    :class:`PietQLExecutor` given an executor lets the planner price the
    fan-out instead.
    """

    def __init__(
        self,
        context: EvaluationContext,
        bindings: "Dict[str, LayerBinding] | None" = None,
        sharded: Optional[ShardedExecutor] = None,
    ) -> None:
        super().__init__(
            context, bindings, sharded or ShardedExecutor(obs=context.obs)
        )

    def _through_route(self, leaf: Leaf) -> str:
        return store_or_scan(leaf, self.sharded)


__all__ = [
    "ShardOutcome",
    "ShardedExecutor",
    "ShardedPietQLExecutor",
]
