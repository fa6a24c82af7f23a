"""Latency: the job path waits on the queue's change signal, not a timer.

Every pool here idles with ``poll_s=30.0``, far beyond each bound
asserted, so only a wake-up can pass: a submit must reach an idle
worker, an outcome must reach ``wait()`` / ``drain()``, and ``stop()``
must reach idle workers at once.  ``poll_s`` stays as the fallback that
notices another process writing the same SQLite file, and the last test
drives exactly that, with two queue objects on one file.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro.service import QueryService, SQLiteJobQueue, WorkerPool
from repro.service.worker import execute_spec

from tests.service.conftest import FIG1_SPEC

pytestmark = pytest.mark.service

#: An idle poll no test may sit through.
IDLE_POLL_S = 30.0
#: Long enough for every worker to find the queue empty and go idle.
SETTLE_S = 0.1


@pytest.fixture(scope="module")
def serial_result(fig1_service_world):
    return json.loads(execute_spec(FIG1_SPEC, fig1_service_world)[0])


class TestChangeSignal:
    def test_outcomes_move_the_counter_and_claims_do_not(self, make_queue):
        queue = make_queue()
        seen = queue.changes
        job = queue.enqueue(FIG1_SPEC)
        # Moved before the wait began: the wait returns without blocking.
        assert queue.wait_for_change(seen, timeout=0.0)
        after_enqueue = queue.changes
        queue.claim("w0")
        queue.start(job.job_id, "w0")
        assert queue.changes == after_enqueue
        assert not queue.wait_for_change(after_enqueue, timeout=0.01)
        queue.complete(job.job_id, "w0", "{}")
        assert queue.changes > after_enqueue

    def test_only_a_release_that_released_something_signals(
        self, make_queue, clock
    ):
        queue = make_queue(clock=clock)
        queue.enqueue(FIG1_SPEC)
        queue.claim("w0", lease_s=5.0)
        seen = queue.changes
        assert queue.release_expired() == []
        assert queue.changes == seen
        clock.advance(6.0)
        assert len(queue.release_expired()) == 1
        assert queue.changes > seen


def race_after(queue, method: str, outcome) -> None:
    """Run ``outcome`` right after the next ``queue.<method>()`` looks,
    so it lands between a waiter's look and its wait."""
    look = getattr(queue, method)

    def racing(*args, **kwargs):
        delattr(queue, method)  # once
        seen = look(*args, **kwargs)
        outcome()
        return seen

    setattr(queue, method, racing)


class TestNoLostWakeUp:
    """The counter is read before the look, so a change landing between
    the look and the wait ends the wait at once instead of a poll later."""

    def test_worker_claim(self, make_queue, fig1_service_world):
        queue = make_queue()
        race_after(queue, "claim", lambda: queue.enqueue(FIG1_SPEC))
        service = QueryService(
            fig1_service_world, queue=queue, n_workers=1, poll_s=IDLE_POLL_S
        )
        started = time.monotonic()
        with service:
            time.sleep(SETTLE_S)  # the racing claim has run by now
            job = service.wait("J000001", timeout=2.0)
        assert job.state == "done"
        assert time.monotonic() - started < 1.5

    def test_wait(self, make_queue, fig1_service_world):
        queue = make_queue()
        job = queue.enqueue(FIG1_SPEC)
        queue.claim("w0")
        race_after(
            queue, "get", lambda: queue.complete(job.job_id, "w0", "{}")
        )
        service = QueryService(
            fig1_service_world, queue=queue, poll_s=IDLE_POLL_S
        )
        started = time.monotonic()
        assert service.wait(job.job_id, timeout=2.0).state == "done"
        assert time.monotonic() - started < 1.0

    def test_drain(self, make_queue, fig1_service_world):
        queue = make_queue()
        job = queue.enqueue(FIG1_SPEC)
        queue.claim("outside-the-pool")
        race_after(
            queue,
            "active",
            lambda: queue.complete(job.job_id, "outside-the-pool", "{}"),
        )
        service = QueryService(
            fig1_service_world, queue=queue, poll_s=IDLE_POLL_S
        )
        with service:
            started = time.monotonic()
            service.drain(timeout=2.0)
            assert time.monotonic() - started < 1.0


class TestWakeUps:
    def test_submit_wakes_an_idle_worker(
        self, make_queue, fig1_service_world, serial_result
    ):
        service = QueryService(
            fig1_service_world, queue=make_queue(), poll_s=IDLE_POLL_S
        )
        with service:
            time.sleep(SETTLE_S)
            job_id = service.submit(FIG1_SPEC)
            job = service.wait(job_id, timeout=2.0)
        assert job.state == "done"
        assert service.result(job_id) == serial_result

    def test_stop_wakes_idle_workers(self, make_queue, fig1_service_world):
        pool = WorkerPool(
            make_queue(), fig1_service_world, poll_s=IDLE_POLL_S
        ).start()
        threads = list(pool._threads)
        time.sleep(SETTLE_S)
        started = time.monotonic()
        pool.stop()
        assert time.monotonic() - started < 2.0
        assert not any(thread.is_alive() for thread in threads)

    def test_drain_returns_at_the_last_completion(
        self, make_queue, fig1_service_world
    ):
        service = QueryService(
            fig1_service_world, queue=make_queue(), poll_s=IDLE_POLL_S
        )
        with service:
            time.sleep(SETTLE_S)
            job_ids = [service.submit(FIG1_SPEC) for _ in range(3)]
            started = time.monotonic()
            service.drain(timeout=10.0)
            drained_at = time.time()  # the queue's own clock
            assert time.monotonic() - started < 2.0
        jobs = [service.status(job_id) for job_id in job_ids]
        assert [job.state for job in jobs] == ["done"] * 3
        assert 0.0 <= drained_at - max(j.finished_at for j in jobs) < 2.0

    def test_no_wake_up_is_lost_under_thread_churn(
        self, make_queue, fig1_service_world, serial_result
    ):
        """More workers than cores, closed-loop clients and a tiny switch
        interval: a wake-up lost between a look and its wait would leave
        a ``wait()`` (or every idle worker) asleep for the 30 s poll."""
        n_clients, jobs_per_client = 3, 8
        service = QueryService(
            fig1_service_world,
            queue=make_queue(),
            n_workers=4,
            poll_s=IDLE_POLL_S,
        )
        outcomes, errors = [], []

        def client(slot: int) -> None:
            try:
                for _ in range(jobs_per_client):
                    job_id = service.submit(FIG1_SPEC, client_id=f"c{slot}")
                    outcomes.append(service.wait(job_id, timeout=5.0))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with service:
                threads = [
                    threading.Thread(target=client, args=(slot,))
                    for slot in range(n_clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(outcomes) == n_clients * jobs_per_client
        assert {job.state for job in outcomes} == {"done"}
        for job in outcomes:
            assert json.loads(job.result_json) == serial_result


def test_another_process_writing_the_file_is_seen_by_the_poll_fallback(
    tmp_path, fig1_service_world, serial_result
):
    """A second queue object on the file, as CLI ``submit`` opens one:
    its enqueue signals nothing the serving pool waits on, and the
    pool's completion signals nothing the second object's waiter waits
    on.  Both sides still finish within the ``poll_s`` fallback."""
    path = str(tmp_path / "jobs.db")
    served, submitter = SQLiteJobQueue(path), SQLiteJobQueue(path)
    try:
        server = QueryService(fig1_service_world, queue=served, poll_s=0.05)
        client = QueryService(
            fig1_service_world, queue=submitter, poll_s=0.05
        )  # never started: only its wait() is used
        with server:
            time.sleep(SETTLE_S)
            job = submitter.enqueue(FIG1_SPEC)
            done = client.wait(job.job_id, timeout=5.0)
        assert done.state == "done"
        assert client.result(job.job_id) == serial_result
    finally:
        served.close()
        submitter.close()
