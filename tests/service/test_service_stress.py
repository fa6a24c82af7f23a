"""Concurrency stress: many submitters, many workers, exact bookkeeping.

Real threads on both sides of the queue.  The invariants under load:

* every job reaches exactly one terminal state, and the answer is the
  exact serial one (no double-execution can *record* — ownership checks
  make a second recording impossible, and the counters prove no second
  execution completed);
* the ``queue_depth`` / ``jobs_in_flight`` gauges converge to the
  actual queue contents;
* :class:`~repro.obs.PipelineStats` counter totals are exact — not
  approximately right under contention, exact (the same guarantee
  ``tests/test_obs.py`` establishes for raw counters, here end-to-end
  through the service).
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import AdmissionError
from repro.service import (
    AdmissionPolicy,
    QueryService,
    QuerySpec,
    SQLiteJobQueue,
)

from tests.service.conftest import FIG1_SPEC

pytestmark = pytest.mark.service


@pytest.mark.parametrize("queue_kind", ["memory", "sqlite"])
def test_many_submitters_many_workers_exact_totals(
    tmp_path, fig1_service_world, queue_kind
):
    n_submitters, jobs_per_submitter, n_workers = 6, 5, 4
    n_jobs = n_submitters * jobs_per_submitter
    queue = SQLiteJobQueue(
        ":memory:" if queue_kind == "memory" else str(tmp_path / "stress.db")
    )
    service = QueryService(
        fig1_service_world,
        queue=queue,
        policy=AdmissionPolicy(
            max_queue_depth=n_jobs + 1,
            max_in_flight_per_client=jobs_per_submitter,
        ),
        n_workers=n_workers,
        lease_s=60.0,
    )
    job_ids, errors = [], []
    lock = threading.Lock()

    def submitter(client: int) -> None:
        for _ in range(jobs_per_submitter):
            try:
                job_id = service.submit(
                    FIG1_SPEC, client_id=f"client-{client}"
                )
                with lock:
                    job_ids.append(job_id)
            except Exception as exc:  # pragma: no cover - failure detail
                with lock:
                    errors.append(exc)

    try:
        with service:
            threads = [
                threading.Thread(target=submitter, args=(i,))
                for i in range(n_submitters)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            assert len(job_ids) == len(set(job_ids)) == n_jobs
            service.drain(timeout=120.0)

        # Every job: terminal, done, exact answer, exactly one attempt.
        for job_id in job_ids:
            job = service.status(job_id)
            assert job.state == "done"
            assert job.attempts == 1, (
                f"{job_id} executed {job.attempts} times"
            )
            assert service.result(job_id) == {"kind": "through", "count": 5}

        # Counter totals are exact, not approximate.
        metrics = service.metrics()
        assert metrics["jobs_submitted"] == n_jobs
        assert metrics["jobs_claimed"] == n_jobs
        assert metrics["jobs_completed"] == n_jobs
        assert metrics.get("jobs_requeued", 0) == 0
        assert metrics.get("jobs_reclaimed", 0) == 0
        assert metrics["service_queue_wait_calls"] == n_jobs
        assert metrics["service_run_calls"] == n_jobs
        assert metrics["state_done"] == n_jobs

        # Gauges converge to the actual (empty) queue contents.
        assert metrics["queue_depth"] == queue.depth() == 0
        assert metrics["jobs_in_flight"] == queue.active() == 0
        assert metrics["workers_busy"] == 0
        assert 0.0 <= metrics["worker_utilization"] <= 1.0
    finally:
        queue.close()


def test_depth_gauge_tracks_actuals_while_queue_fills(fig1_service_world):
    """With the pool stopped, the gauge follows every enqueue/cancel."""
    service = QueryService(fig1_service_world)
    for expected_depth in range(1, 6):
        service.submit(FIG1_SPEC)
        assert service.queue.depth() == expected_depth
        assert service.obs.counters["queue_depth"] == expected_depth
    cancelled = service.cancel("J000001")
    assert cancelled.state == "cancelled"
    assert service.obs.counters["queue_depth"] == 4
    assert service.obs.counters["jobs_in_flight"] == 4


def test_admission_under_concurrent_submitters(fig1_service_world):
    """Caps hold under contention: accepted + rejected == attempted,
    and the queue never exceeds the depth cap."""
    cap = 8
    service = QueryService(
        fig1_service_world,
        policy=AdmissionPolicy(
            max_queue_depth=cap, max_in_flight_per_client=cap
        ),
    )
    outcomes = []
    lock = threading.Lock()

    def submitter(i: int) -> None:
        try:
            service.submit(FIG1_SPEC, client_id=f"c{i}")
            with lock:
                outcomes.append("accepted")
        except AdmissionError:
            with lock:
                outcomes.append("rejected")

    threads = [
        threading.Thread(target=submitter, args=(i,)) for i in range(20)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert len(outcomes) == 20
    assert outcomes.count("accepted") == cap
    assert outcomes.count("rejected") == 20 - cap
    assert service.queue.depth() == cap
    assert service.metrics()["jobs_rejected"] == 20 - cap


def test_mixed_workload_stats_are_exact(fig1_service_world):
    """Good jobs, bad jobs and cancellations in one run: the per-state
    totals and counters add up exactly."""
    service = QueryService(fig1_service_world, n_workers=3)
    good = [service.submit(FIG1_SPEC) for _ in range(4)]
    bad = [
        service.submit(QuerySpec.pietql("SELECT nonsense !!"))
        for _ in range(2)
    ]
    with service:
        service.drain(timeout=60.0)
    cancelled_error = None
    try:
        service.cancel(good[0])
    except Exception as exc:
        cancelled_error = exc
    assert cancelled_error is not None  # done jobs are not cancellable

    for job_id in good:
        assert service.status(job_id).state == "done"
    for job_id in bad:
        # Syntax errors are non-retryable: failed on the first attempt.
        job = service.status(job_id)
        assert job.state == "failed"
        assert job.attempts == 1

    metrics = service.metrics()
    assert metrics["jobs_submitted"] == 6
    assert metrics["jobs_completed"] == 4
    assert metrics["jobs_failed"] == 2
    assert metrics["state_done"] == 4
    assert metrics["state_dead"] == 0
