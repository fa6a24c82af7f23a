"""The service facade: submit / status / result / cancel.

:class:`QueryService` wires one world, one queue, admission control and
a worker pool into the four-call API the CLI verbs mirror:

* :meth:`~QueryService.submit` — admission-checked enqueue; accepts a
  :class:`~repro.service.spec.QuerySpec` or a raw Piet-QL string;
* :meth:`~QueryService.status` — the job's current record (state,
  attempts, error, fault trace, per-job metrics snapshot);
* :meth:`~QueryService.result` — the canonical result dict of a
  ``done`` job; pending jobs raise
  :class:`~repro.errors.JobStateError`, ``failed``/``dead`` jobs raise
  :class:`~repro.errors.JobFailedError` carrying the failure record
  and the injected-fault trace;
* :meth:`~QueryService.cancel` — withdraw a still-queued job.

The queue is a :class:`~repro.service.queue.SQLiteJobQueue`: the one
passed in (a file, for durability and for other processes to share),
else a private ``":memory:"`` one.

:meth:`~QueryService.wait` and :meth:`~QueryService.drain` block on the
queue's change signal, the one idle workers wait on, rather than
sleeping between looks: an outcome recorded in this process ends the
wait at once, and ``poll_s`` only bounds how late an outcome written by
another process over the same SQLite file is seen.

Use it as a context manager (starts/stops the worker pool), or leave
the pool stopped and drive workers manually — the differential and
chaos suites do the latter for determinism.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Union

from repro.errors import (
    JobFailedError,
    JobStateError,
    ServiceError,
)
from repro.obs import PipelineStats
from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.queue import Job, SQLiteJobQueue
from repro.service.spec import QuerySpec
from repro.service.worker import WorkerPool
from repro.service.worlds import ServiceWorld


class QueryService:
    """Admission-controlled durable query execution over one world.

    Parameters
    ----------
    world:
        The :class:`~repro.service.worlds.ServiceWorld` queries run
        against.
    queue:
        A :class:`~repro.service.queue.SQLiteJobQueue`; defaults to
        ``SQLiteJobQueue(":memory:")`` wired to this service's observer,
        private to this service and gone with it.  Pass one on a file
        for durability.
    policy:
        The :class:`~repro.service.admission.AdmissionPolicy` caps.
    n_workers / lease_s / max_retries / backend / n_shards / fault_plan:
        Worker-pool and retry configuration (see
        :class:`~repro.service.worker.WorkerPool` and
        :class:`~repro.service.queue.SQLiteJobQueue`).
    obs:
        The service observer; a fresh
        :class:`~repro.obs.PipelineStats` when omitted.
    """

    def __init__(
        self,
        world: ServiceWorld,
        queue: Optional[SQLiteJobQueue] = None,
        policy: Optional[AdmissionPolicy] = None,
        n_workers: int = 2,
        lease_s: float = 30.0,
        max_retries: int = 2,
        backend: str = "serial",
        n_shards: Optional[int] = None,
        fault_plan: Optional[object] = None,
        obs: Optional[PipelineStats] = None,
        poll_s: float = 0.02,
        reap_interval_s: float = 0.05,
    ) -> None:
        if max_retries < 0:
            raise ServiceError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        self.world = world
        self.obs = obs if obs is not None else PipelineStats()
        self.queue = (
            queue
            if queue is not None
            else SQLiteJobQueue(":memory:", obs=self.obs)
        )
        if queue is not None and queue.obs is not self.obs:
            # One observer for queue + workers + service, so gauges and
            # counters tell one coherent story.
            self.queue.obs = self.obs
        self.admission = AdmissionController(policy, obs=self.obs)
        self.max_retries = int(max_retries)
        self.pool = WorkerPool(
            self.queue,
            world,
            n_workers=n_workers,
            lease_s=lease_s,
            backend=backend,
            n_shards=n_shards,
            fault_plan=fault_plan,
            obs=self.obs,
            poll_s=poll_s,
            reap_interval_s=reap_interval_s,
        )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "QueryService":
        """Start the worker pool (idempotent)."""
        self.pool.start()
        return self

    def stop(self) -> None:
        self.pool.stop()

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def drain(self, timeout: float = 60.0) -> None:
        """Block until every submitted job reached a terminal state."""
        self.pool.drain(timeout=timeout)

    # -- the API -------------------------------------------------------------

    def submit(
        self,
        query: Union[QuerySpec, str],
        client_id: str = "anonymous",
    ) -> str:
        """Admit and enqueue one query; returns the job id.

        A raw string is treated as Piet-QL.  Raises a typed
        :class:`~repro.errors.AdmissionError` subclass when a cap is
        hit — the submission is *not* enqueued.  Admission and enqueue
        run under the queue object's lock, which orders submits within
        this process; against other processes writing the same file,
        depth caps are best-effort (documented in
        :mod:`repro.service.admission`).
        """
        spec = (
            query
            if isinstance(query, QuerySpec)
            else QuerySpec.pietql(query)
        )
        with self.queue._lock:
            self.admission.admit(self.queue, client_id)
            job = self.queue.enqueue(
                spec, client_id=client_id, max_retries=self.max_retries
            )
        return job.job_id

    def status(self, job_id: str) -> Job:
        """The job's current record (:class:`JobNotFoundError` if absent)."""
        return self.queue.get(job_id)

    def result(self, job_id: str) -> Dict[str, object]:
        """The result dict of a ``done`` job.

        ``failed`` / ``dead`` jobs raise
        :class:`~repro.errors.JobFailedError` carrying the recorded
        error and the injected-fault trace; non-terminal jobs raise
        :class:`~repro.errors.JobStateError`.
        """
        job = self.queue.get(job_id)
        if job.state == "done":
            return json.loads(job.result_json)
        if job.state in ("failed", "dead"):
            faults = (
                tuple(part.strip() for part in job.fault_trace.split(";"))
                if job.fault_trace
                else ()
            )
            raise JobFailedError(
                f"job {job_id} is {job.state}: {job.error}",
                error=job.error,
                faults=faults,
            )
        raise JobStateError(
            f"job {job_id} has no result yet (state={job.state!r})"
        )

    def explain(self, job_id: str) -> Optional[str]:
        """The persisted EXPLAIN plan of a finished job (None if absent)."""
        return self.queue.get(job_id).explain

    def cancel(self, job_id: str) -> Job:
        """Cancel a still-queued job (typed errors otherwise)."""
        return self.queue.cancel(job_id)

    def wait(self, job_id: str, timeout: float = 60.0) -> Job:
        """Block until the job reaches a terminal state; returns it.

        Waits on the queue's change signal, so an outcome recorded
        through this queue object returns at once; an outcome written by
        another process is seen within the pool's ``poll_s``.  Raises
        :class:`ServiceError` on timeout.  The worker pool (or a caller
        stepping workers by hand) must be making progress, or this can
        only time out.
        """

        def terminal() -> Optional[Job]:
            job = self.queue.get(job_id)
            return job if job.is_terminal else None

        job = self.queue.wait_until(terminal, timeout, self.pool.poll_s)
        if job is None:
            raise ServiceError(
                f"timed out after {timeout:g}s waiting for {job_id} "
                f"(state={self.queue.get(job_id).state!r})"
            )
        return job

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """One flat report: obs counters/stages + state counts + utilization.

        Queue-state counts are reported as ``state_<state>`` — a prefix
        of their own, because the event counters already use ``jobs_``
        names (``jobs_claimed`` counts claim *events*; ``state_claimed``
        counts jobs *currently* claimed).  ``worker_utilization`` is
        busy wall time over busy+idle wall time (0.0 before any work
        happens).
        """
        report: Dict[str, float] = self.obs.as_dict()
        for state, count in self.queue.counts().items():
            report[f"state_{state}"] = count
        busy = self.obs.seconds("service_run")
        idle = self.obs.seconds("worker_idle")
        report["worker_utilization"] = (
            busy / (busy + idle) if (busy + idle) > 0 else 0.0
        )
        return report


__all__ = ["QueryService"]
