"""Workers: claim → execute → record, plus the lease reaper.

A :class:`Worker` drains the queue one claim at a time: parse the
stored spec, execute it through the cost-based planner and a
:class:`~repro.parallel.ShardedExecutor`, persist the canonical result
JSON, the EXPLAIN plan and a per-job metrics snapshot, and mark the job
``done`` — or report the failure, letting the queue's retry bookkeeping
decide between re-queue, ``failed`` and ``dead``.

Error classification: *semantic* errors (malformed Piet-QL, unknown
layers, bad windows — retrying cannot change the outcome) are
non-retryable and land the job in ``failed`` on the first attempt;
*infrastructure* errors (injected faults, shard-execution failures,
anything unexpected) are retryable.

Fault injection composes with :class:`~repro.faults.FaultPlan`: the
worker consults the plan per ``(job.seq - 1, job.attempts - 1)`` — the
same *(task, attempt)* coordinates the resilient fan-out uses, with
submission order numbering the tasks.  Kinds map onto service
semantics:

* ``drop`` / ``truncate`` — the worker *crashes* mid-job: the fault is
  recorded on the job's trace, then the worker abandons the claim
  without reporting.  Nothing happens until the lease expires and the
  reaper re-queues the job — the crash-recovery path under test in
  ``tests/service/test_chaos_recovery.py``;
* ``raise`` — execution raises :class:`~repro.faults.FaultInjected`
  (a retryable failure: the queue re-queues or kills the job);
* ``latency`` — the attempt sleeps ``latency_s`` before executing,
  deterministically exercising lease expiry when ``latency_s`` exceeds
  the lease.

:class:`WorkerPool` runs N workers as threads plus a reaper thread
periodically calling :meth:`~repro.service.queue.SQLiteJobQueue
.release_expired`; :meth:`WorkerPool.drain` blocks until the queue has
no active jobs (the ``serve --drain`` CLI mode).

No worker sleeps on a timer.  An idle worker, and ``drain``, wait on
the queue's change signal (:meth:`~repro.service.queue.SQLiteJobQueue
.wait_for_change`): an enqueue, outcome or re-queue on the same queue
object wakes them, and :meth:`WorkerPool.stop` wakes them to exit.  The
pool's ``poll_s`` is only the longest such wait, which is how a job
that another process wrote into the same SQLite file gets noticed.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.errors import (
    IngestError,
    LeaseLostError,
    PietQLError,
    QueryError,
    ReproError,
    SchemaError,
    ServiceError,
)
from repro.obs import PipelineStats
from repro.service.queue import Job, SQLiteJobQueue
from repro.service.spec import QuerySpec, canonical_json, result_payload
from repro.service.worlds import ServiceWorld

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel import ShardedExecutor

#: Error types whose jobs go straight to ``failed`` (no retry can help).
NON_RETRYABLE = (QueryError, PietQLError, SchemaError, ServiceError, IngestError)


def execute_spec(
    spec: QuerySpec,
    world: ServiceWorld,
    backend: str = "serial",
    n_shards: Optional[int] = None,
    obs: Optional[PipelineStats] = None,
    executor: Optional["ShardedExecutor"] = None,
) -> Tuple[str, Optional[str]]:
    """Execute one spec; return ``(canonical result JSON, explain text)``.

    Both query kinds are front-ends of the one leaf path — resolve,
    :func:`~repro.query.planner.plan` with a sharded executor as the
    fan-out candidate, then the one
    :func:`~repro.query.evaluator.execute`: ``through`` specs run
    through :func:`~repro.query.planner.planned_count_objects_through`,
    ``pietql`` specs through a :class:`~repro.pietql.PietQLExecutor`
    holding the executor (its ``THROUGH RESULT`` and POI parts each
    plan their own leaf).  The persisted EXPLAIN plan records the
    strategy the cost model actually picked, with the actuals of the
    run; a ``serial`` executor, whose fan-out prices above the
    in-process scan, then cuts no table.

    Query kinds evaluate against :meth:`~repro.service.worlds
    .ServiceWorld.query_context` — on a streaming world that pins the
    ingestor's current snapshot for the whole execution, so an
    ``ingest`` job landing on another worker mid-query can never tear
    this one's view.  ``ingest`` specs feed the world's ingestor and
    return the per-batch accounting as their result payload.

    ``executor`` is the sharded executor to fan out on: a caller that
    runs many specs passes one, so that its pool and resident shards
    serve them all, and closes it when done.  Without it a throwaway
    executor is built from ``backend`` / ``n_shards`` / ``obs`` and
    closed before returning.
    """
    from repro.parallel import ShardedExecutor
    from repro.pietql import PietQLExecutor
    from repro.query.planner import planned_count_objects_through

    if spec.kind == "ingest":
        if world.ingestor is None:
            raise ServiceError(
                f"world {world.name!r} is not streaming; ingest jobs need "
                f"load_world(..., streaming=True)"
            )
        report = world.ingestor.submit(
            [s[0] for s in spec.samples],
            [s[1] for s in spec.samples],
            [s[2] for s in spec.samples],
            [s[3] for s in spec.samples],
        )
        return canonical_json(result_payload("ingest", report)), None
    context = world.query_context()
    throwaway = executor is None
    if throwaway:
        executor = ShardedExecutor(
            backend=backend,
            n_shards=n_shards,
            obs=obs if obs is not None else context.obs,
        )
    try:
        if spec.kind == "through":
            count, plan = planned_count_objects_through(
                context,
                spec.target,
                list(spec.constraints),
                moft_name=spec.moft_name,
                window=spec.window,
                executor=executor,
            )
            return (
                canonical_json(result_payload("through", count)),
                plan.render(),
            )
        result = PietQLExecutor(
            context, world.bindings, sharded=executor
        ).execute(spec.text)
        explain = result.plan.render() if result.plan is not None else None
        return canonical_json(result_payload("pietql", result)), explain
    finally:
        if throwaway:
            executor.close()


def _job_metrics(job: Job, run_seconds: float) -> str:
    """The per-job metrics snapshot persisted onto the job record."""
    queue_wait = (
        max(0.0, job.claimed_at - job.submitted_at)
        if job.claimed_at is not None
        else 0.0
    )
    return canonical_json({
        "attempts": job.attempts,
        "retries": job.retries,
        "queue_wait_s": queue_wait,
        "run_s": run_seconds,
        "worker_id": job.worker_id,
    })


class Worker:
    """Claims and executes jobs; drive it via :meth:`step` or a thread.

    Parameters
    ----------
    queue / world:
        Where jobs come from and what they run against.
    worker_id:
        Stable identity used for lease ownership checks.
    lease_s:
        Visibility timeout requested with each claim.  Must comfortably
        exceed a query's execution time; a slow job can
        :meth:`~repro.service.queue.SQLiteJobQueue.extend_lease` (not done
        automatically — queries here are short).
    backend / n_shards:
        The configuration of the worker's one sharded executor — built
        with the first job, shared by every later one (on ``processes``:
        one pool, forked then), closed by :meth:`stop`.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` injecting worker
        crashes and failures (testing only); see the module docstring
        for the coordinate convention.
    obs:
        Service-level observer (counters + stage timers).
    """

    def __init__(
        self,
        queue: SQLiteJobQueue,
        world: ServiceWorld,
        worker_id: str = "worker-0",
        lease_s: float = 30.0,
        backend: str = "serial",
        n_shards: Optional[int] = None,
        fault_plan: Optional[object] = None,
        obs: Optional[PipelineStats] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.queue = queue
        self.world = world
        self.worker_id = str(worker_id)
        self.lease_s = float(lease_s)
        self.backend = backend
        self.n_shards = n_shards
        self.fault_plan = fault_plan
        self.obs = obs if obs is not None else queue.obs
        self.clock = clock
        self._executor: Optional["ShardedExecutor"] = None

    def _sharded(self) -> "ShardedExecutor":
        """The one executor every job of this worker fans out on, built
        with the first job that needs it: its pool and resident shards
        then serve the jobs that follow."""
        if self._executor is None:
            from repro.parallel import ShardedExecutor

            self._executor = ShardedExecutor(
                backend=self.backend, n_shards=self.n_shards, obs=self.obs
            )
        return self._executor

    def stop(self) -> None:
        """Close the worker's executor (pool and resident shards).  The
        worker stays usable: the next job builds a new one."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    # -- fault-plan consultation ---------------------------------------------

    def _scheduled_fault(self, job: Job):
        if self.fault_plan is None:
            return None
        return self.fault_plan.fault_for(job.seq - 1, job.attempts - 1)

    def _fire(self, job: Job, fault) -> None:
        self.fault_plan.record(fault)
        self.obs.incr("fault_injected")
        self.queue.record_fault(job.job_id, fault.describe())

    # -- one unit of work ----------------------------------------------------

    def step(self) -> Optional[Job]:
        """Claim and process at most one job; None when queue was empty.

        Returns the job's record as this worker last saw it — or, for a
        simulated crash, the abandoned (still-claimed) record the reaper
        will later release.
        """
        job = self.queue.claim(self.worker_id, lease_s=self.lease_s)
        if job is None:
            return None
        return self.process(job)

    def process(self, job: Job) -> Job:
        """Execute one claimed job through to a reported outcome."""
        fault = self._scheduled_fault(job)
        if fault is not None and fault.kind in ("drop", "truncate"):
            # Simulated worker death: record the fault for the trace,
            # then vanish without reporting.  The job stays claimed; the
            # lease must expire before anyone can touch it again.
            self._fire(job, fault)
            self.obs.incr("worker_crashes")
            return self.queue.get(job.job_id)
        started = self.clock()
        self.obs.incr("workers_busy")
        try:
            job = self.queue.start(job.job_id, self.worker_id)
            if fault is not None:
                from repro.faults import FaultInjected

                self._fire(job, fault)
                if fault.kind == "raise":
                    raise FaultInjected(
                        f"injected fault: {fault.describe()}"
                    )
                time.sleep(fault.latency_s)  # latency fault
            result_json, explain = execute_spec(
                job.spec, self.world, executor=self._sharded()
            )
            run_seconds = self.clock() - started
            self.obs.record("service_run", run_seconds)
            return self.queue.complete(
                job.job_id,
                self.worker_id,
                result_json,
                explain=explain,
                metrics_json=_job_metrics(job, run_seconds),
            )
        except LeaseLostError:
            # The reaper re-queued this job under us (e.g. a latency
            # fault outlived the lease); another claim owns it now and
            # our outcome must not be recorded.
            return self.queue.get(job.job_id)
        except Exception as exc:  # only NON_RETRYABLE types are final
            run_seconds = self.clock() - started
            self.obs.record("service_run", run_seconds)
            error = (
                f"{type(exc).__name__}: {exc}"
                if isinstance(exc, ReproError)
                else "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
            )
            try:
                return self.queue.fail(
                    job.job_id,
                    self.worker_id,
                    error,
                    retryable=not isinstance(exc, NON_RETRYABLE),
                    metrics_json=_job_metrics(job, run_seconds),
                )
            except LeaseLostError:
                return self.queue.get(job.job_id)
        finally:
            self.obs.incr("workers_busy", -1)

    # -- thread loop ---------------------------------------------------------

    def run_loop(
        self, stop: threading.Event, poll_s: float = 0.02
    ) -> None:
        """Drain the queue until ``stop`` is set.

        With nothing to claim, wait for the queue's change signal, at
        most ``poll_s``.  The counter is read before the stop check and
        the claim, so a signal that lands in between ends the wait at
        once.
        """
        while True:
            seen = self.queue.changes
            if stop.is_set():
                return
            if self.step() is None:
                idle_start = self.clock()
                self.queue.wait_for_change(seen, poll_s)
                self.obs.record("worker_idle", self.clock() - idle_start)


class WorkerPool:
    """N worker threads plus the lease reaper, start/stop managed."""

    def __init__(
        self,
        queue: SQLiteJobQueue,
        world: ServiceWorld,
        n_workers: int = 2,
        lease_s: float = 30.0,
        backend: str = "serial",
        n_shards: Optional[int] = None,
        fault_plan: Optional[object] = None,
        obs: Optional[PipelineStats] = None,
        poll_s: float = 0.02,
        reap_interval_s: float = 0.05,
    ) -> None:
        if n_workers < 1:
            raise ServiceError(f"n_workers must be >= 1, got {n_workers}")
        self.queue = queue
        self.world = world
        self.obs = obs if obs is not None else queue.obs
        self.poll_s = float(poll_s)
        self.reap_interval_s = float(reap_interval_s)
        self.workers: List[Worker] = [
            Worker(
                queue,
                world,
                worker_id=f"worker-{i}",
                lease_s=lease_s,
                backend=backend,
                n_shards=n_shards,
                fault_plan=fault_plan,
                obs=self.obs,
            )
            for i in range(n_workers)
        ]
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []

    def start(self) -> "WorkerPool":
        """Spawn the worker threads and the reaper (idempotent)."""
        if self._threads:
            return self
        self._stop.clear()
        for worker in self.workers:
            thread = threading.Thread(
                target=worker.run_loop,
                args=(self._stop, self.poll_s),
                name=f"repro-{worker.worker_id}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        reaper = threading.Thread(
            target=self._reap_loop, name="repro-lease-reaper", daemon=True
        )
        reaper.start()
        self._threads.append(reaper)
        return self

    def _reap_loop(self) -> None:
        while not self._stop.is_set():
            self.queue.release_expired()
            self._stop.wait(self.reap_interval_s)

    def stop(self, timeout: float = 10.0) -> None:
        """Signal every thread, join them, and stop the workers (each
        closes its executor)."""
        self._stop.set()
        self.queue.wake()  # idle workers wait on the queue, not on _stop
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        for worker in self.workers:
            worker.stop()

    def drain(self, timeout: float = 60.0) -> None:
        """Block until no job is queued, claimed or running.

        The pool must be started; raises :class:`ServiceError` on
        timeout (with the stuck state counts in the message).  Waits on
        the queue's change signal, so it returns as soon as the last
        outcome is recorded.
        """
        if not self._threads:
            raise ServiceError("worker pool is not started; call start()")
        if not self.queue.wait_until(
            lambda: self.queue.active() == 0, timeout, self.poll_s
        ):
            raise ServiceError(
                f"drain timed out after {timeout:g}s with active jobs: "
                f"{self.queue.counts()}"
            )

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


__all__ = ["NON_RETRYABLE", "Worker", "WorkerPool", "execute_spec"]
