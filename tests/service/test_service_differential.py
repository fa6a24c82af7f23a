"""Differential oracle for the query service.

The service is an *execution envelope* around the sharded engine — a
queue, leases and retries must never change an answer.  Every test here
submits through :class:`~repro.service.QueryService` and demands the
result be identical (canonical-JSON byte-identical where the encoding
is compared) to running the same query directly: serial evaluator,
:class:`~repro.parallel.ShardedExecutor`, and
:class:`~repro.parallel.ShardedPietQLExecutor`.

The hypothesis lane fuzzes the *spec space* (targets, constraint sets,
windows) and the *service configuration* (worker counts, shard counts,
backends) together, with workers driven synchronously so every example
is deterministic.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.gis import NODE, POLYGON, POLYLINE
from repro.parallel import ShardedExecutor, ShardedPietQLExecutor
from repro.query.evaluator import count_objects_through
from repro.service import (
    MemoryJobQueue,
    QueryService,
    QuerySpec,
    Worker,
    canonical_json,
)

from tests.parallel.oracle import pietql_fingerprint, sorted_ids
from tests.service.conftest import (
    FIG1_CONSTRAINTS,
    FIG1_TARGET,
    SYNTH_CONSTRAINTS,
    SYNTH_TARGET,
)

pytestmark = pytest.mark.service

FIG1_LAYERS = (("Ln", POLYGON), ("Lr", POLYLINE), ("Ls", NODE))

PIETQL_QUERIES = (
    "SELECT layer.schools FROM Fig1",
    "SELECT layer.neighborhoods FROM Fig1 "
    "WHERE intersection(layer.rivers, layer.neighborhoods)",
    "SELECT layer.neighborhoods FROM Fig1 "
    "WHERE intersection(layer.rivers, layer.neighborhoods) "
    "AND contains(layer.neighborhoods, layer.schools) "
    "| COUNT OBJECTS FROM FMbus THROUGH RESULT",
)


def run_jobs_synchronously(world, specs, n_workers, backend, n_shards):
    """Submit every spec, then round-robin N synchronous workers."""
    service = QueryService(
        world,
        queue=MemoryJobQueue(),
        n_workers=1,  # the pool stays stopped; we drive our own workers
        backend=backend,
        n_shards=n_shards,
    )
    job_ids = [service.submit(spec) for spec in specs]
    workers = [
        Worker(
            service.queue, world, worker_id=f"w{i}",
            backend=backend, n_shards=n_shards, obs=service.obs,
        )
        for i in range(n_workers)
    ]
    for _ in range(4 * len(specs) + 4):
        if service.queue.active() == 0:
            break
        for worker in workers:
            worker.step()
    assert service.queue.active() == 0
    return service, job_ids


class TestFig1Parity:
    def test_through_answer_matches_direct_sharded_executor(
        self, fig1_service_world, fig1_context
    ):
        spec = QuerySpec.through(
            FIG1_TARGET, FIG1_CONSTRAINTS, moft_name="FMbus"
        )
        direct_serial = count_objects_through(
            fig1_context, FIG1_TARGET, FIG1_CONSTRAINTS, moft_name="FMbus"
        )
        direct_sharded = ShardedExecutor(
            backend="serial", n_shards=3
        ).count_objects_through(
            fig1_context, FIG1_TARGET, FIG1_CONSTRAINTS, moft_name="FMbus"
        )
        assert direct_serial == direct_sharded == 5

        service, (job_id,) = run_jobs_synchronously(
            fig1_service_world, [spec], n_workers=2,
            backend="serial", n_shards=3,
        )
        assert service.result(job_id) == {
            "kind": "through", "count": direct_serial,
        }
        # Byte-identical canonical encodings, not just equal dicts.
        assert service.status(job_id).result_json == canonical_json(
            {"kind": "through", "count": direct_serial}
        )
        assert "QueryPlan" in service.explain(job_id)

    @pytest.mark.parametrize("query", PIETQL_QUERIES)
    def test_pietql_answers_match_direct_sharded_executor(
        self, fig1_service_world, fig1_context, query
    ):
        direct = ShardedPietQLExecutor(
            fig1_context, fig1_service_world.bindings,
            backend="serial", n_shards=2,
        ).execute(query)
        service, (job_id,) = run_jobs_synchronously(
            fig1_service_world, [QuerySpec.pietql(query)],
            n_workers=2, backend="serial", n_shards=2,
        )
        result = service.result(job_id)
        assert result["kind"] == "pietql"
        expected_ids = sorted_ids(direct.geometry_ids)
        assert tuple(result["geometry_ids"] or ()) == (expected_ids or ())
        assert result["count"] == direct.count
        if direct.matched_objects is None:
            assert result["matched_objects"] is None
        else:
            assert tuple(result["matched_objects"]) == sorted_ids(
                direct.matched_objects
            )


class TestHypothesisFuzzLane:
    """Fuzz specs × service configuration against the serial evaluator."""

    @settings(max_examples=30, deadline=None)
    @given(
        target=st.sampled_from(FIG1_LAYERS),
        constraints=st.lists(
            st.tuples(
                st.sampled_from(["intersects", "contains"]),
                st.sampled_from(FIG1_LAYERS),
            ),
            max_size=2,
        ),
        window=st.one_of(
            st.none(),
            st.tuples(
                st.floats(min_value=0.0, max_value=4.0),
                st.floats(min_value=4.0, max_value=9.0),
            ),
        ),
        n_workers=st.integers(min_value=1, max_value=4),
        n_shards=st.integers(min_value=1, max_value=5),
    )
    def test_service_equals_serial_evaluator(
        self,
        fig1_service_world,
        fig1_context,
        target,
        constraints,
        window,
        n_workers,
        n_shards,
    ):
        expected = count_objects_through(
            fig1_context, target, constraints,
            moft_name="FMbus", window=window,
        )
        spec = QuerySpec.through(
            target, constraints, moft_name="FMbus", window=window
        )
        # The spec round-trips through its storage encoding on the way.
        assert QuerySpec.from_json(spec.to_json()) == spec
        service, (job_id,) = run_jobs_synchronously(
            fig1_service_world, [spec], n_workers=n_workers,
            backend="serial", n_shards=n_shards,
        )
        assert service.result(job_id) == {
            "kind": "through", "count": expected,
        }

    @settings(max_examples=10, deadline=None)
    @given(
        queries=st.lists(
            st.sampled_from(PIETQL_QUERIES), min_size=1, max_size=4
        ),
        n_workers=st.integers(min_value=1, max_value=3),
    )
    def test_batches_preserve_per_job_answers(
        self, fig1_service_world, fig1_context, queries, n_workers
    ):
        """A batch of jobs through K workers answers each exactly as the
        direct executor would — no cross-job contamination."""
        service, job_ids = run_jobs_synchronously(
            fig1_service_world,
            [QuerySpec.pietql(q) for q in queries],
            n_workers=n_workers, backend="serial", n_shards=2,
        )
        for query, job_id in zip(queries, job_ids):
            direct = pietql_fingerprint(
                ShardedPietQLExecutor(
                    fig1_context, fig1_service_world.bindings,
                    backend="serial", n_shards=2,
                ).execute(query)
            )
            result = service.result(job_id)
            geometry_ids = (
                tuple(result["geometry_ids"])
                if result["geometry_ids"] is not None
                else None
            )
            matched = (
                tuple(result["matched_objects"])
                if result["matched_objects"] is not None
                else None
            )
            assert (geometry_ids, result["count"], matched) == direct[:3]


@pytest.mark.slow
class TestSynthCityParity:
    """The 10k-sample synthetic world: service vs direct executors."""

    def test_through_count_matches_direct(
        self, synth_service_world, synth_world
    ):
        expected = count_objects_through(
            synth_world.context, SYNTH_TARGET, SYNTH_CONSTRAINTS
        )
        spec = QuerySpec.through(SYNTH_TARGET, SYNTH_CONSTRAINTS)
        service, (job_id,) = run_jobs_synchronously(
            synth_service_world, [spec], n_workers=3,
            backend="serial", n_shards=4,
        )
        assert service.result(job_id) == {
            "kind": "through", "count": expected,
        }

    def test_windowed_counts_match_direct(
        self, synth_service_world, synth_world
    ):
        specs, expected = [], []
        for window in [(0.0, 25.0), (10.0, 60.0), (0.0, 99.0)]:
            specs.append(
                QuerySpec.through(
                    SYNTH_TARGET, SYNTH_CONSTRAINTS, window=window
                )
            )
            expected.append(
                count_objects_through(
                    synth_world.context, SYNTH_TARGET, SYNTH_CONSTRAINTS,
                    window=window,
                )
            )
        service, job_ids = run_jobs_synchronously(
            synth_service_world, specs, n_workers=2,
            backend="serial", n_shards=3,
        )
        for job_id, count in zip(job_ids, expected):
            assert service.result(job_id)["count"] == count

    def test_pietql_on_synth_matches_direct(
        self, synth_service_world, synth_world
    ):
        query = (
            "SELECT layer.neighborhoods FROM City "
            "WHERE intersection(layer.rivers, layer.neighborhoods) "
            "| COUNT OBJECTS FROM FM THROUGH RESULT"
        )
        direct = ShardedPietQLExecutor(
            synth_world.context, synth_service_world.bindings,
            backend="serial", n_shards=4,
        ).execute(query)
        service, (job_id,) = run_jobs_synchronously(
            synth_service_world, [QuerySpec.pietql(query)],
            n_workers=2, backend="serial", n_shards=4,
        )
        result = service.result(job_id)
        assert result["count"] == direct.count
        assert tuple(result["matched_objects"]) == sorted_ids(
            direct.matched_objects
        )
