"""State-machine tests for the durable job queue.

Every test runs on a ``":memory:"`` queue and on a file via the
``make_queue`` factory — one queue, two kinds of path, one contract,
and this file is where that is enforced: enqueue/claim/complete happy
path, ownership checks, retry budgets, lease expiry, cancellation,
admission caps, and the spec round-trip.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    ClientThrottledError,
    JobNotFoundError,
    JobStateError,
    LeaseLostError,
    QueueFullError,
    ServiceError,
)
from repro.service import (
    AdmissionController,
    AdmissionPolicy,
    QueryService,
    QuerySpec,
    SQLiteJobQueue,
    canonical_json,
)

from tests.service.conftest import FIG1_SPEC

pytestmark = pytest.mark.service

PQL = QuerySpec.pietql("SELECT layer.schools FROM Fig1")


class TestSpecRoundTrip:
    def test_through_round_trips_canonically(self):
        spec = FIG1_SPEC
        again = QuerySpec.from_json(spec.to_json())
        assert again == spec
        assert again.to_json() == spec.to_json()

    def test_pietql_round_trips(self):
        assert QuerySpec.from_json(PQL.to_json()) == PQL

    def test_malformed_json_is_a_typed_error(self):
        with pytest.raises(ServiceError):
            QuerySpec.from_json("not json at all")
        with pytest.raises(ServiceError):
            QuerySpec.from_json(canonical_json({"kind": "nope"}))

    def test_describe_is_stable(self):
        assert "Ln:polygon" in FIG1_SPEC.describe()
        assert "FMbus" in FIG1_SPEC.describe()


class TestLifecycle:
    def test_enqueue_claim_complete(self, make_queue, clock):
        queue = make_queue(clock=clock)
        job = queue.enqueue(FIG1_SPEC, client_id="alice")
        assert job.state == "queued"
        assert job.job_id == "J000001"
        assert queue.depth() == 1

        claimed = queue.claim("w0", lease_s=30.0)
        assert claimed.job_id == job.job_id
        assert claimed.state == "claimed"
        assert claimed.attempts == 1
        assert claimed.lease_until == pytest.approx(clock.now + 30.0)
        assert queue.depth() == 0

        running = queue.start(job.job_id, "w0")
        assert running.state == "running"

        done = queue.complete(
            job.job_id, "w0", canonical_json({"count": 5}),
            explain="PLAN", metrics_json=canonical_json({"run_s": 0.1}),
        )
        assert done.state == "done"
        assert done.result_json == '{"count":5}'
        assert done.explain == "PLAN"
        assert done.is_terminal
        assert queue.active() == 0

    def test_claim_is_fifo_by_submission(self, make_queue):
        queue = make_queue()
        first = queue.enqueue(FIG1_SPEC)
        queue.enqueue(PQL)
        assert queue.claim("w0").job_id == first.job_id

    def test_claim_on_empty_queue_returns_none(self, make_queue):
        assert make_queue().claim("w0") is None

    def test_unknown_job_id_raises(self, make_queue):
        with pytest.raises(JobNotFoundError):
            make_queue().get("J999999")

    def test_invalid_parameters_are_typed_errors(self, make_queue):
        queue = make_queue()
        with pytest.raises(ServiceError):
            queue.enqueue(FIG1_SPEC, max_retries=-1)
        queue.enqueue(FIG1_SPEC)
        with pytest.raises(ServiceError):
            queue.claim("w0", lease_s=0.0)

    def test_cancel_only_while_queued(self, make_queue):
        queue = make_queue()
        job = queue.enqueue(FIG1_SPEC)
        cancelled = queue.cancel(job.job_id)
        assert cancelled.state == "cancelled"
        with pytest.raises(JobStateError):
            queue.cancel(job.job_id)

        job2 = queue.enqueue(FIG1_SPEC)
        queue.claim("w0")
        with pytest.raises(JobStateError):
            queue.cancel(job2.job_id)


class TestOwnership:
    def test_only_the_lease_holder_may_report(self, make_queue):
        queue = make_queue()
        job = queue.enqueue(FIG1_SPEC)
        queue.claim("w0")
        with pytest.raises(LeaseLostError):
            queue.complete(job.job_id, "imposter", "{}")
        with pytest.raises(LeaseLostError):
            queue.fail(job.job_id, "imposter", "boom")
        with pytest.raises(LeaseLostError):
            queue.start(job.job_id, "imposter")

    def test_stale_worker_write_after_requeue_is_rejected(
        self, make_queue, clock
    ):
        queue = make_queue(clock=clock)
        job = queue.enqueue(FIG1_SPEC, max_retries=2)
        queue.claim("w0", lease_s=5.0)
        clock.advance(6.0)
        released = queue.release_expired()
        assert [j.job_id for j in released] == [job.job_id]
        assert released[0].state == "queued"
        # w0 comes back from the dead and tries to report: refused.
        with pytest.raises(LeaseLostError):
            queue.complete(job.job_id, "w0", "{}")
        # The job is claimable again by anyone.
        reclaimed = queue.claim("w1")
        assert reclaimed.worker_id == "w1"
        assert reclaimed.attempts == 2

    def test_extend_lease_pushes_expiry(self, make_queue, clock):
        queue = make_queue(clock=clock)
        job = queue.enqueue(FIG1_SPEC)
        queue.claim("w0", lease_s=5.0)
        clock.advance(4.0)
        extended = queue.extend_lease(job.job_id, "w0", 10.0)
        assert extended.lease_until == pytest.approx(clock.now + 10.0)
        clock.advance(6.0)  # past the original lease, inside the new one
        assert queue.release_expired() == []


class TestRetryBudget:
    def test_retryable_failure_requeues_until_budget_spent(self, make_queue):
        queue = make_queue()
        job = queue.enqueue(FIG1_SPEC, max_retries=2)
        for attempt in (1, 2):
            claimed = queue.claim("w0")
            assert claimed.attempts == attempt
            failed = queue.fail(job.job_id, "w0", "flake", retryable=True)
            assert failed.state == "queued"
        queue.claim("w0")
        dead = queue.fail(job.job_id, "w0", "flake", retryable=True)
        assert dead.state == "dead"
        assert dead.attempts == 3
        assert dead.retries == 2

    def test_non_retryable_failure_fails_immediately(self, make_queue):
        queue = make_queue()
        job = queue.enqueue(FIG1_SPEC, max_retries=5)
        queue.claim("w0")
        failed = queue.fail(
            job.job_id, "w0", "bad query", retryable=False
        )
        assert failed.state == "failed"
        assert failed.attempts == 1

    def test_zero_retries_dies_on_first_retryable_failure(self, make_queue):
        queue = make_queue()
        job = queue.enqueue(FIG1_SPEC, max_retries=0)
        queue.claim("w0")
        assert queue.fail(job.job_id, "w0", "x").state == "dead"

    def test_lease_expiry_consumes_the_same_budget(self, make_queue, clock):
        queue = make_queue(clock=clock)
        job = queue.enqueue(FIG1_SPEC, max_retries=1)
        queue.claim("w0", lease_s=5.0)
        clock.advance(6.0)
        assert queue.release_expired()[0].state == "queued"
        queue.claim("w1", lease_s=5.0)
        clock.advance(6.0)
        dead = queue.release_expired()[0]
        assert dead.state == "dead"
        assert "lease expired" in dead.error
        assert queue.get(job.job_id).state == "dead"

    def test_unexpired_leases_are_left_alone(self, make_queue, clock):
        queue = make_queue(clock=clock)
        queue.enqueue(FIG1_SPEC)
        queue.claim("w0", lease_s=30.0)
        clock.advance(10.0)
        assert queue.release_expired() == []


class TestFaultTrace:
    def test_fault_records_accumulate(self, make_queue):
        queue = make_queue()
        job = queue.enqueue(FIG1_SPEC)
        queue.record_fault(job.job_id, "drop(task=0, attempt=0)")
        queue.record_fault(job.job_id, "raise(task=0, attempt=1)")
        trace = queue.get(job.job_id).fault_trace
        assert trace == "drop(task=0, attempt=0); raise(task=0, attempt=1)"


class TestCountsAndGauges:
    def test_counts_cover_every_state(self, make_queue):
        queue = make_queue()
        assert set(queue.counts()) == {
            "queued", "claimed", "running", "done", "failed", "dead",
            "cancelled",
        }
        queue.enqueue(FIG1_SPEC)
        assert queue.counts()["queued"] == 1

    def test_gauges_track_depth_and_in_flight(self, make_queue, obs):
        queue = make_queue(obs=obs)
        job = queue.enqueue(FIG1_SPEC)
        assert obs.counters["queue_depth"] == 1
        assert obs.counters["jobs_in_flight"] == 1
        queue.claim("w0")
        assert obs.counters["queue_depth"] == 0
        assert obs.counters["jobs_in_flight"] == 1
        queue.complete(job.job_id, "w0", "{}")
        assert obs.counters["jobs_in_flight"] == 0
        assert obs.counters["jobs_submitted"] == 1
        assert obs.counters["jobs_claimed"] == 1
        assert obs.counters["jobs_completed"] == 1

    def test_in_flight_is_per_client(self, make_queue):
        queue = make_queue()
        queue.enqueue(FIG1_SPEC, client_id="alice")
        queue.enqueue(FIG1_SPEC, client_id="alice")
        queue.enqueue(FIG1_SPEC, client_id="bob")
        assert queue.in_flight("alice") == 2
        assert queue.in_flight("bob") == 1
        assert queue.in_flight("carol") == 0


class TestAdmission:
    def test_queue_depth_cap(self, make_queue, obs):
        queue = make_queue(obs=obs)
        controller = AdmissionController(
            AdmissionPolicy(max_queue_depth=2), obs=obs
        )
        for _ in range(2):
            controller.admit(queue, "alice")
            queue.enqueue(FIG1_SPEC, client_id="alice")
        with pytest.raises(QueueFullError):
            controller.admit(queue, "bob")
        assert obs.counters["jobs_rejected"] == 1

    def test_per_client_in_flight_cap(self, make_queue, obs):
        queue = make_queue(obs=obs)
        controller = AdmissionController(
            AdmissionPolicy(max_in_flight_per_client=1), obs=obs
        )
        controller.admit(queue, "alice")
        queue.enqueue(FIG1_SPEC, client_id="alice")
        with pytest.raises(ClientThrottledError):
            controller.admit(queue, "alice")
        # A different client is unaffected (fairness, not backpressure).
        controller.admit(queue, "bob")

    def test_policy_validation(self):
        with pytest.raises(ServiceError):
            AdmissionPolicy(max_queue_depth=0)
        with pytest.raises(ServiceError):
            AdmissionPolicy(max_in_flight_per_client=0)


class TestSQLiteDurability:
    def test_records_survive_reopen(self, tmp_path, clock):
        path = str(tmp_path / "durable.db")
        queue = SQLiteJobQueue(path, clock=clock)
        job = queue.enqueue(FIG1_SPEC, client_id="alice")
        queue.claim("w0")
        queue.complete(
            job.job_id, "w0", '{"count":5}', explain="PLAN"
        )
        queue.close()

        reopened = SQLiteJobQueue(path, clock=clock)
        try:
            again = reopened.get(job.job_id)
            assert again.state == "done"
            assert again.result_json == '{"count":5}'
            assert again.explain == "PLAN"
            # seq counter also survives: the next id does not collide.
            assert reopened.enqueue(FIG1_SPEC).job_id == "J000002"
        finally:
            reopened.close()

    def test_two_connections_share_one_queue(self, tmp_path):
        path = str(tmp_path / "shared.db")
        submitter = SQLiteJobQueue(path)
        server = SQLiteJobQueue(path)
        try:
            job = submitter.enqueue(FIG1_SPEC)
            claimed = server.claim("w0")
            assert claimed.job_id == job.job_id
            # The submitter's view reflects the server's claim.
            assert submitter.get(job.job_id).state == "claimed"
            # A second claim on either connection finds nothing queued.
            assert submitter.claim("w1") is None
        finally:
            submitter.close()
            server.close()

    def test_unopenable_path_is_a_typed_error(self, tmp_path):
        with pytest.raises(ServiceError):
            SQLiteJobQueue(str(tmp_path / "missing-dir" / "q.db"))


class TestDefaultQueue:
    def test_each_default_service_has_its_own_memory_queue(
        self, fig1_service_world
    ):
        first = QueryService(fig1_service_world)
        second = QueryService(fig1_service_world)
        assert isinstance(first.queue, SQLiteJobQueue)
        assert first.queue.path == ":memory:"
        assert first.queue.obs is first.obs
        assert [first.submit(FIG1_SPEC), first.submit(FIG1_SPEC)] == [
            "J000001", "J000002",
        ]
        assert second.submit(FIG1_SPEC) == "J000001"
        with pytest.raises(JobNotFoundError):
            second.status("J000002")
