"""Chaos differential campaign: the engine under seeded fault plans.

The contract under test is *exact-or-error*: whenever the resilient
sharded engine reports success under an injected fault plan, its answer
is bit-equal to the seed serial path; whenever it cannot recover, it
raises a typed :class:`~repro.errors.ShardExecutionError` carrying the
injected-fault trace — a wrong answer is never an outcome.

Two tiers:

* fixed-seed smoke tests (marked ``faults``) — fast, deterministic,
  part of the tier-1 run on every push; they pin both branches of the
  contract (a forced fault storm must error with a full trace, a
  single-fault plan must recover exactly) on the Figure 1 world and the
  10k synthetic city, across ``count_objects_through``,
  ``total_dwell_time`` (store built under faults) and Piet-QL
  ``THROUGH RESULT``;
* hypothesis campaigns (marked ``slow``) — generated (seed, rate,
  shards, mode, budget) tuples, deep-searched nightly with
  ``--hypothesis-profile=ci``.  A failing example replays from its
  seed alone: fault plans draw from seeded streams, backoff has no
  jitter, and latency faults inflate *reported* time only.
"""

from __future__ import annotations

import math
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShardExecutionError
from repro.faults import FaultPlan, FaultSpec
from repro.gis import POLYGON
from repro.parallel import RetryPolicy, ShardedExecutor, ShardedPietQLExecutor
from repro.pietql.executor import PietQLExecutor
from repro.query.aggregate import total_dwell_time
from repro.query.poi import poi_dwell_times, poi_visit_counts
from repro.synth import figure1_instance

from tests.faults.conftest import (
    FIG1_BINDINGS,
    FIG1_CONSTRAINTS,
    FIG1_TARGET,
    SYNTH_BINDINGS,
    SYNTH_CONSTRAINTS,
    SYNTH_TARGET,
)
from tests.parallel.oracle import pietql_fingerprint

FIG1_QUERY = (
    "SELECT layer.neighborhoods FROM Fig1 "
    "WHERE intersection(layer.rivers, layer.neighborhoods) "
    "AND contains(layer.neighborhoods, layer.schools) "
    "| COUNT OBJECTS FROM FMbus THROUGH RESULT"
)
SYNTH_QUERY = (
    "SELECT layer.cities FROM City "
    "WHERE intersection(layer.rivers, layer.cities) "
    "AND contains(layer.cities, layer.stores) "
    "| COUNT OBJECTS FROM FM THROUGH RESULT"
)

#: Generous per-task timeout: real shard work on these worlds finishes in
#: well under a second, while injected latency draws up to 60 s — so a
#: timeout firing always means a latency fault tripped it, never real
#: slowness on a loaded test machine.
TIMEOUT_S = 30.0
LATENCY_S = 60.0


def chaos_executor(
    seed: int,
    n_shards: int = 3,
    mode: str = "degrade",
    max_retries: int = 2,
    rate: float = 0.35,
):
    """A sharded executor under a seeded random fault plan (serial:
    plan faults are applied in the coordinator, the same on any backend)."""
    plan = FaultPlan.random(
        seed,
        n_tasks=n_shards + 2,
        rate=rate,
        max_attempts=max_retries + 2,
        latency_s=LATENCY_S,
    )
    executor = ShardedExecutor(
        backend="serial",
        n_shards=n_shards,
        failure_mode=mode,
        retry_policy=RetryPolicy(max_retries=max_retries, timeout_s=TIMEOUT_S),
        fault_plan=plan,
    )
    return executor, plan


def assert_exact_or_error(run, expected, plan, equal=None) -> str:
    """The oracle: success must match the serial reference exactly;
    failure must be the typed error carrying the injected trace."""
    same = equal if equal is not None else (lambda a, b: a == b)
    try:
        value = run()
    except ShardExecutionError as exc:
        assert plan.trace, "engine raised without any injected fault firing"
        assert exc.faults == plan.trace
        assert exc.failures, "typed error carries no failure records"
        return "error"
    assert same(value, expected), (
        f"chaos run diverged from serial: {value!r} != {expected!r} "
        f"under trace {[f.describe() for f in plan.trace]}"
    )
    return "ok"


# -- fixed-seed smoke tier (in tier-1; select with `-m faults`) ---------------


@pytest.mark.faults
class TestFig1CountChaos:
    def test_seed_sweep_exact_or_error(self, fig1_context, fig1_count_ref):
        outcomes = []
        for seed in range(8):
            mode = "degrade" if seed % 2 else "retry"
            executor, plan = chaos_executor(seed, mode=mode, n_shards=3)
            outcomes.append(assert_exact_or_error(
                lambda: executor.count_objects_through(
                    fig1_context, FIG1_TARGET, FIG1_CONSTRAINTS,
                    moft_name="FMbus",
                ),
                fig1_count_ref,
                plan,
            ))
        assert "ok" in outcomes, "no chaos run recovered — sweep too hostile"

    @pytest.mark.parametrize("kind", ["raise", "latency", "drop", "truncate"])
    def test_single_fault_recovers_exactly(
        self, fig1_context, fig1_count_ref, kind
    ):
        plan = FaultPlan.single(kind, task_index=0, latency_s=LATENCY_S)
        executor = ShardedExecutor(
            backend="serial", n_shards=3, failure_mode="retry",
            retry_policy=RetryPolicy(max_retries=2, timeout_s=TIMEOUT_S),
            fault_plan=plan,
        )
        value = executor.count_objects_through(
            fig1_context, FIG1_TARGET, FIG1_CONSTRAINTS, moft_name="FMbus"
        )
        assert value == fig1_count_ref
        assert [f.kind for f in plan.trace] == [kind]
        assert executor.obs.count("fault_injected") == 1
        assert executor.obs.count("task_retries") == 1

    def test_forced_fault_storm_is_typed_error_with_trace(
        self, fig1_context
    ):
        plan = FaultPlan.always("drop", n_tasks=5)
        executor = ShardedExecutor(
            backend="serial", n_shards=3, failure_mode="retry",
            retry_policy=RetryPolicy(max_retries=1), fault_plan=plan,
        )
        with pytest.raises(ShardExecutionError) as excinfo:
            executor.count_objects_through(
                fig1_context, FIG1_TARGET, FIG1_CONSTRAINTS,
                moft_name="FMbus",
            )
        err = excinfo.value
        assert err.faults == plan.trace and len(err.faults) > 0
        assert all(f.status == "dropped" for f in err.failures)

    def test_zero_fault_plan_reproduces_fast_path_unchanged(
        self, fig1_context, fig1_count_ref
    ):
        """The acceptance gate: an empty plan adds no retry overhead."""
        plan = FaultPlan.none()
        executor = ShardedExecutor(
            backend="serial", n_shards=3, failure_mode="retry",
            retry_policy=RetryPolicy(max_retries=2, timeout_s=TIMEOUT_S),
            fault_plan=plan,
        )
        value = executor.count_objects_through(
            fig1_context, FIG1_TARGET, FIG1_CONSTRAINTS, moft_name="FMbus"
        )
        assert value == fig1_count_ref
        assert plan.trace == ()
        for name in (
            "fault_injected",
            "task_retries",
            "task_timeouts",
            "backend_degradations",
        ):
            assert executor.obs.count(name) == 0
        assert executor.obs.timer("retry_backoff").calls == 0

    def test_same_seed_replays_identically(self, fig1_context):
        def one_run(seed: int):
            executor, plan = chaos_executor(
                seed, mode="retry", max_retries=1, rate=0.5,
            )
            try:
                value: Optional[int] = executor.count_objects_through(
                    fig1_context, FIG1_TARGET, FIG1_CONSTRAINTS,
                    moft_name="FMbus",
                )
            except ShardExecutionError:
                value = None
            return value, [f.describe() for f in plan.trace]

        for seed in range(6):
            assert one_run(seed) == one_run(seed), f"seed {seed} diverged"


@pytest.mark.faults
class TestSynthCountChaos:
    def test_seed_sweep_exact_or_error(self, synth_world, synth_count_ref):
        for seed in range(4):
            executor, plan = chaos_executor(
                seed, n_shards=4,
                mode="degrade" if seed % 2 else "retry",
            )
            assert_exact_or_error(
                lambda: executor.count_objects_through(
                    synth_world.context, SYNTH_TARGET, SYNTH_CONSTRAINTS
                ),
                synth_count_ref,
                plan,
            )


@pytest.mark.faults
class TestDwellChaos:
    """``total_dwell_time`` routed through a store *built under faults*.

    The dwell aggregate itself is a serial fold; its chaos surface is
    the sharded pre-agg build feeding it.  A store that merges is
    complete (the row-coverage check refused anything less), so the
    routed dwell must match the serial scan to float tolerance.
    """

    def test_fig1_dwell_exact_or_error(self):
        for seed in range(6):
            context = figure1_instance().context()
            moft = context.moft("FMbus")
            elements = context.gis.layer("Ln").elements(POLYGON)
            reference = total_dwell_time(
                context, FIG1_TARGET, FIG1_CONSTRAINTS,
                moft_name="FMbus", use_preagg=False,
            )
            executor, plan = chaos_executor(
                seed, n_shards=3,
                mode="degrade" if seed % 2 else "retry", rate=0.45,
            )
            try:
                store = executor.build_preagg_store(
                    moft, context.time, "hour", elements,
                    layer="Ln", kind=POLYGON,
                )
            except ShardExecutionError as exc:
                assert plan.trace and exc.faults == plan.trace
                continue
            context.register_preagg(store)
            hits = context.obs.counters.get("preagg_hits", 0)
            routed = total_dwell_time(
                context, FIG1_TARGET, FIG1_CONSTRAINTS,
                moft_name="FMbus", use_preagg=True,
            )
            assert context.obs.counters.get("preagg_hits", 0) == hits + 1
            assert math.isclose(
                routed, reference, rel_tol=1e-9, abs_tol=1e-9
            ), f"seed {seed}: {routed} != {reference}"


@pytest.mark.faults
class TestPietQLChaos:
    def test_fig1_through_result_exact_or_error(self, fig1_context):
        expected = pietql_fingerprint(
            PietQLExecutor(fig1_context, FIG1_BINDINGS).execute(FIG1_QUERY)
        )
        outcomes = []
        for seed in range(8):
            executor, plan = chaos_executor(
                seed, n_shards=3,
                mode="degrade" if seed % 2 else "retry",
            )
            sharded = ShardedPietQLExecutor(
                fig1_context, FIG1_BINDINGS, sharded=executor
            )
            outcomes.append(assert_exact_or_error(
                lambda: pietql_fingerprint(sharded.execute(FIG1_QUERY)),
                expected,
                plan,
            ))
        assert "ok" in outcomes


@pytest.mark.faults
class TestPoiBuildFaults:
    """A sharded POI build is a fan-out like any other: one faulty shard
    is the typed error or the exact serial answer, never a short store."""

    KINDS = ["raise", "drop", "truncate"]

    @staticmethod
    def answers(executor=None):
        context = figure1_instance(with_pois=True).context()
        options = dict(moft_name="FMbus", strategy="serial")
        if executor is not None:
            options.update(strategy="sharded", executor=executor)
        return [
            measure(context, "Lp", "hour", **options)
            for measure in (poi_visit_counts, poi_dwell_times)
        ]

    @pytest.mark.parametrize("kind", KINDS)
    def test_raise_mode_is_the_typed_error(self, kind):
        plan = FaultPlan.single(kind, task_index=1)
        executor = ShardedExecutor("serial", n_shards=3, fault_plan=plan)
        with pytest.raises(ShardExecutionError) as excinfo:
            self.answers(executor)
        assert excinfo.value.faults == plan.trace
        assert [f.kind for f in plan.trace] == [kind]

    @pytest.mark.parametrize("kind", KINDS)
    def test_retry_mode_is_the_serial_answer(self, kind):
        plan = FaultPlan.single(kind, task_index=1)
        executor = ShardedExecutor(
            "serial", n_shards=3, failure_mode="retry", fault_plan=plan
        )
        # Two measures, two builds; attempts count per fan-out, so each
        # build loses its first try at shard 1 and keeps its second.
        assert self.answers(executor) == self.answers()
        assert executor.obs.count("task_retries") == 2
        assert executor.obs.count("backend_degradations") == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_degrade_mode_is_the_serial_answer(self, kind):
        # Shard 0 fails past its budget on processes and is rebuilt on
        # the serial backend: one descent per build.
        plan = FaultPlan([FaultSpec(kind, 0, 0), FaultSpec(kind, 0, 1)])
        with ShardedExecutor(
            "processes", n_shards=3, failure_mode="degrade",
            retry_policy=RetryPolicy(max_retries=1), fault_plan=plan,
        ) as executor:
            assert self.answers(executor) == self.answers()
            assert executor.obs.count("backend_degradations") == 2


# -- hypothesis campaigns (nightly, --hypothesis-profile=ci) -------------------

chaos_params = {
    "seed": st.integers(min_value=0, max_value=2**16),
    "rate": st.floats(min_value=0.05, max_value=0.6),
    "n_shards": st.integers(min_value=1, max_value=5),
    "mode": st.sampled_from(["retry", "degrade"]),
    "max_retries": st.integers(min_value=0, max_value=2),
}


@pytest.mark.slow
class TestChaosCampaigns:
    @given(**chaos_params)
    @settings(deadline=None)
    def test_fig1_count(
        self, fig1_context, fig1_count_ref,
        seed, rate, n_shards, mode, max_retries,
    ):
        executor, plan = chaos_executor(
            seed, n_shards=n_shards, mode=mode,
            max_retries=max_retries, rate=rate,
        )
        assert_exact_or_error(
            lambda: executor.count_objects_through(
                fig1_context, FIG1_TARGET, FIG1_CONSTRAINTS,
                moft_name="FMbus",
            ),
            fig1_count_ref,
            plan,
        )

    @given(**chaos_params)
    @settings(deadline=None, max_examples=20)
    def test_synth_count(
        self, synth_world, synth_count_ref,
        seed, rate, n_shards, mode, max_retries,
    ):
        executor, plan = chaos_executor(
            seed, n_shards=n_shards, mode=mode,
            max_retries=max_retries, rate=rate,
        )
        assert_exact_or_error(
            lambda: executor.count_objects_through(
                synth_world.context, SYNTH_TARGET, SYNTH_CONSTRAINTS
            ),
            synth_count_ref,
            plan,
        )

    @given(**chaos_params)
    @settings(deadline=None, max_examples=25)
    def test_fig1_pietql(
        self, fig1_context,
        seed, rate, n_shards, mode, max_retries,
    ):
        expected = pietql_fingerprint(
            PietQLExecutor(fig1_context, FIG1_BINDINGS).execute(FIG1_QUERY)
        )
        executor, plan = chaos_executor(
            seed, n_shards=n_shards, mode=mode,
            max_retries=max_retries, rate=rate,
        )
        sharded = ShardedPietQLExecutor(
            fig1_context, FIG1_BINDINGS, sharded=executor
        )
        assert_exact_or_error(
            lambda: pietql_fingerprint(sharded.execute(FIG1_QUERY)),
            expected,
            plan,
        )

    @given(seed=st.integers(min_value=0, max_value=2**16),
           rate=st.floats(min_value=0.1, max_value=0.6))
    @settings(deadline=None, max_examples=15)
    def test_synth_pietql(self, synth_world, seed, rate):
        expected = pietql_fingerprint(
            PietQLExecutor(
                synth_world.context, SYNTH_BINDINGS
            ).execute(SYNTH_QUERY)
        )
        executor, plan = chaos_executor(
            seed, n_shards=4, mode="degrade", rate=rate
        )
        sharded = ShardedPietQLExecutor(
            synth_world.context, SYNTH_BINDINGS, sharded=executor
        )
        assert_exact_or_error(
            lambda: pietql_fingerprint(sharded.execute(SYNTH_QUERY)),
            expected,
            plan,
        )
