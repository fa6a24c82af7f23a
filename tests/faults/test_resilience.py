"""Unit tests for the resilient fan-out layer (``repro.parallel.backends``).

``resilient_map`` owns the exact-or-error contract: every item's value
accounted for in order, or a typed :class:`ShardExecutionError` carrying
the failure records and the injected-fault trace.  These tests drive it
directly with tiny arithmetic tasks, one behavior per test: retries per
fault kind, timeouts, deterministic backoff, the degradation ladder, and
the completeness check that refuses partial merges.
"""

from __future__ import annotations

import pytest

from repro.errors import EvaluationError, PreAggError, ShardExecutionError
from repro.faults import FaultInjected, FaultPlan, FaultSpec
from repro.gis import POLYGON
from repro.obs import PipelineStats
from repro.parallel import (
    BACKENDS,
    DEGRADATION_ORDER,
    RetryPolicy,
    SerialBackend,
    ShardedExecutor,
    TaskFailure,
    degraded_backend,
    get_backend,
    resilient_map,
)
from repro.parallel.backends import ExecutionBackend, ProcessBackend
from repro.preagg import PreAggStore
from repro.synth import figure1_instance

pytestmark = pytest.mark.faults


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise RuntimeError(f"genuine worker failure on {x}")


class _ForgetfulBackend(ExecutionBackend):
    """A broken backend that loses the outcome of every odd-indexed item."""

    name = "forgetful"

    def run_tasks(self, fn, items, timeout=None):
        return super().run_tasks(fn, items[: (len(items) + 1) // 2], timeout)


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_retries == 2
        assert policy.timeout_s is None
        assert policy.backoff_s == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"timeout_s": 0.0},
            {"timeout_s": -1.0},
            {"backoff_s": -0.1},
            {"backoff_multiplier": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(EvaluationError):
            RetryPolicy(**kwargs)

    def test_backoff_is_deterministic_exponential(self):
        policy = RetryPolicy(backoff_s=0.5, backoff_multiplier=3.0)
        assert [policy.backoff_for(r) for r in (1, 2, 3)] == [0.5, 1.5, 4.5]


class TestDegradationLadder:
    def test_order(self):
        assert DEGRADATION_ORDER == ("processes", "serial")

    def test_ladder_steps(self):
        step = degraded_backend(ProcessBackend(max_workers=3))
        assert isinstance(step, SerialBackend)
        assert degraded_backend(step) is None

    def test_threads_names_no_backend(self):
        assert sorted(BACKENDS) == ["processes", "serial"]
        with pytest.raises(EvaluationError, match="unknown backend 'threads'"):
            get_backend("threads")
        # A thread pool is a backend the caller hands in.
        custom = _ForgetfulBackend()
        assert get_backend(custom) is custom

    def test_unknown_backend_degrades_straight_to_serial(self):
        assert isinstance(
            degraded_backend(_ForgetfulBackend()), SerialBackend
        )


class TestResilientMapHappyPath:
    def test_plain_map_semantics(self):
        assert resilient_map(SerialBackend(), _square, [1, 2, 3]) == [1, 4, 9]

    def test_empty_items(self):
        assert resilient_map(SerialBackend(), _square, []) == []

    def test_zero_fault_plan_has_zero_overhead_counters(self):
        obs = PipelineStats()
        plan = FaultPlan.none()
        out = resilient_map(
            SerialBackend(), _square, [1, 2, 3, 4],
            policy=RetryPolicy(timeout_s=30.0), plan=plan, obs=obs,
        )
        assert out == [1, 4, 9, 16]
        assert plan.trace == ()
        for name in (
            "fault_injected",
            "task_retries",
            "task_timeouts",
            "backend_degradations",
        ):
            assert obs.count(name) == 0
        assert obs.seconds("retry_backoff") == 0.0

    def test_invalid_failure_mode(self):
        with pytest.raises(EvaluationError, match="failure mode"):
            resilient_map(
                SerialBackend(), _square, [1], failure_mode="shrug"
            )


class TestFaultKindsRetryToSuccess:
    @pytest.mark.parametrize("kind", ["raise", "drop", "truncate"])
    def test_single_fault_retried(self, kind):
        obs = PipelineStats()
        plan = FaultPlan.single(kind, task_index=1)
        out = resilient_map(
            SerialBackend(), _square, [1, 2, 3], plan=plan, obs=obs
        )
        assert out == [1, 4, 9]
        assert [f.kind for f in plan.trace] == [kind]
        assert obs.count("fault_injected") == 1
        assert obs.count("task_retries") == 1

    def test_latency_fault_trips_timeout_then_recovers(self):
        obs = PipelineStats()
        plan = FaultPlan.single("latency", task_index=0, latency_s=99.0)
        out = resilient_map(
            SerialBackend(), _square, [5],
            policy=RetryPolicy(timeout_s=5.0), plan=plan, obs=obs,
        )
        assert out == [25]
        assert obs.count("task_timeouts") == 1
        assert obs.count("task_retries") == 1

    def test_latency_fault_without_timeout_is_harmless(self):
        obs = PipelineStats()
        plan = FaultPlan.single("latency", task_index=0, latency_s=99.0)
        out = resilient_map(SerialBackend(), _square, [5], plan=plan, obs=obs)
        assert out == [25]
        # The fault fired (trace records it) but nothing failed.
        assert [f.kind for f in plan.trace] == ["latency"]
        assert obs.count("task_retries") == 0

    def test_genuine_exception_retries_too(self):
        # Faults aside, a flaky worker function exhausts retries and the
        # error record carries the real exception.
        with pytest.raises(ShardExecutionError) as excinfo:
            resilient_map(
                SerialBackend(), _boom, [7],
                policy=RetryPolicy(max_retries=1),
            )
        failures = excinfo.value.failures
        assert len(failures) == 2  # initial try + 1 retry
        assert all(isinstance(f.error, RuntimeError) for f in failures)
        assert excinfo.value.faults == ()  # nothing was injected


class TestFailureModes:
    def test_raise_mode_fails_fast_with_trace(self):
        plan = FaultPlan.single("raise", task_index=0)
        with pytest.raises(ShardExecutionError) as excinfo:
            resilient_map(
                SerialBackend(), _square, [1, 2],
                plan=plan, failure_mode="raise",
            )
        err = excinfo.value
        assert "failure_mode='raise'" in str(err)
        assert len(err.failures) == 1
        assert err.failures[0].fault is plan.fault_for(0, 0)
        assert err.faults == plan.trace
        assert isinstance(err.failures[0].error, FaultInjected)

    def test_retry_mode_exhaustion_raises_typed_error(self):
        obs = PipelineStats()
        plan = FaultPlan.always("drop", n_tasks=2)
        with pytest.raises(ShardExecutionError) as excinfo:
            resilient_map(
                SerialBackend(), _square, [1, 2],
                policy=RetryPolicy(max_retries=2), plan=plan, obs=obs,
                failure_mode="retry",
            )
        err = excinfo.value
        assert "max_retries=2" in str(err)
        # 2 tasks x (1 try + 2 retries), every one an injected drop.
        assert len(err.failures) == 6
        assert all(f.status == "dropped" for f in err.failures)
        assert len(err.faults) == 6

    def test_degrade_mode_rescues_on_the_next_tier(self):
        obs = PipelineStats()
        # Task 0 faults on attempts 0 and 1: exhausts max_retries=1 on
        # processes, degrades, and succeeds at serial (attempt 2 is
        # clean) — one descent, one ``backend_degradations``.
        plan = FaultPlan(
            [FaultSpec("raise", 0, 0), FaultSpec("raise", 0, 1)]
        )
        backend = ProcessBackend()
        try:
            out = resilient_map(
                backend, _square, [3, 4],
                policy=RetryPolicy(max_retries=1), plan=plan, obs=obs,
                failure_mode="degrade",
            )
        finally:
            backend.close()
        assert out == [9, 16]
        assert obs.count("backend_degradations") == 1

    def test_degrade_mode_at_serial_raises(self):
        plan = FaultPlan.always("truncate", n_tasks=1)
        with pytest.raises(ShardExecutionError, match="nothing left"):
            resilient_map(
                SerialBackend(), _square, [1],
                policy=RetryPolicy(max_retries=0), plan=plan,
                failure_mode="degrade",
            )

    def test_forgetful_backend_lost_outcomes_become_drops(self):
        # A backend returning too few outcomes must not truncate the
        # result silently: in retry mode with no budget it is an error...
        with pytest.raises(ShardExecutionError) as excinfo:
            resilient_map(
                _ForgetfulBackend(), _square, [1, 2, 3, 4],
                policy=RetryPolicy(max_retries=0), failure_mode="retry",
            )
        assert any(f.status == "dropped" for f in excinfo.value.failures)

    def test_forgetful_backend_degrades_to_serial_and_completes(self):
        # ...and in degrade mode the run steps to serial and completes.
        obs = PipelineStats()
        out = resilient_map(
            _ForgetfulBackend(), _square, [1, 2, 3, 4],
            policy=RetryPolicy(max_retries=0), obs=obs,
            failure_mode="degrade",
        )
        assert out == [1, 4, 9, 16]
        assert obs.count("backend_degradations") == 1


class TestBackoff:
    def test_backoff_sleeps_deterministically_via_injected_sleep(self):
        slept = []
        policy = RetryPolicy(
            max_retries=2, backoff_s=0.25, backoff_multiplier=2.0,
            sleep=slept.append,
        )
        plan = FaultPlan(
            [FaultSpec("raise", 0, 0), FaultSpec("raise", 0, 1)]
        )
        obs = PipelineStats()
        out = resilient_map(
            SerialBackend(), _square, [6], policy=policy, plan=plan, obs=obs
        )
        assert out == [36]
        assert slept == [0.25, 0.5]  # exponential, no jitter
        assert obs.timer("retry_backoff").calls == 2

    def test_zero_backoff_never_calls_sleep(self):
        slept = []
        policy = RetryPolicy(max_retries=2, sleep=slept.append)
        plan = FaultPlan.single("drop", task_index=0)
        resilient_map(SerialBackend(), _square, [1], policy=policy, plan=plan)
        assert slept == []


class TestTaskFailure:
    def test_describe_marks_injected_faults(self):
        plain = TaskFailure(2, 0, "timeout", "processes")
        assert "[injected]" not in plain.describe()
        injected = TaskFailure(
            2, 0, "dropped", "processes", fault=FaultSpec("drop", 2, 0)
        )
        assert "[injected]" in injected.describe()


class TestExecutorResilienceWiring:
    def test_invalid_failure_mode_rejected(self):
        with pytest.raises(EvaluationError, match="failure mode"):
            ShardedExecutor(failure_mode="panic")

    def test_fast_path_leaves_no_resilience_counters(self):
        context = figure1_instance().context()
        executor = ShardedExecutor(backend="serial", n_shards=3)
        from tests.faults.conftest import FIG1_CONSTRAINTS, FIG1_TARGET

        assert executor.count_objects_through(
            context, FIG1_TARGET, FIG1_CONSTRAINTS, moft_name="FMbus"
        ) == 5
        for name in (
            "fault_injected",
            "task_retries",
            "task_timeouts",
            "backend_degradations",
        ):
            assert name not in executor.obs.counters

    def test_repr_shows_failure_mode(self):
        executor = ShardedExecutor(failure_mode="degrade")
        assert "failure_mode='degrade'" in repr(executor)


class TestPreAggMergeCompleteness:
    def test_merge_refuses_missing_shard_store(self):
        """Definition 4 summability: a merge must cover every MOFT row."""
        context = figure1_instance().context()
        moft = context.moft("FMbus")
        elements = context.gis.layer("Ln").elements(POLYGON)
        snapshot = (moft.version, len(moft))
        shards = [s for s in moft.partition_by_objects(3) if len(s)]
        assert len(shards) >= 2
        stores = [
            PreAggStore(
                shard, context.time, "hour", elements,
                layer="Ln", kind=POLYGON,
            )
            for shard in shards
        ]
        merged = PreAggStore.merge(stores, moft, snapshot)
        assert not merged.is_stale()
        with pytest.raises(PreAggError, match="refusing"):
            PreAggStore.merge(stores[:-1], moft, snapshot)
