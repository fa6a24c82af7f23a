"""A worker keeps one sharded executor for all its jobs.

``execute_spec`` used to build an executor per job, so a ``processes``
service forked a pool per job; the worker now builds its executor with
the first job and closes it in ``stop()``.
"""

from __future__ import annotations

import os

from repro.service import QuerySpec, SQLiteJobQueue, Worker
from repro.service.worker import execute_spec

from tests.service.conftest import FIG1_SPEC

FIG1_PIETQL = QuerySpec.pietql(
    "SELECT layer.neighborhoods FROM Fig1 "
    "WHERE intersection(layer.rivers, layer.neighborhoods) "
    "AND contains(layer.neighborhoods, layer.schools) "
    "| COUNT OBJECTS FROM FMbus THROUGH RESULT"
)


def pid_of(shard):
    return {os.getpid(): 1}


def test_consecutive_processes_jobs_share_one_pool(fig1_service_world):
    world = fig1_service_world
    queue = SQLiteJobQueue(":memory:")
    worker = Worker(queue, world, backend="processes", n_shards=2)
    expected = execute_spec(FIG1_PIETQL, world)[0]
    seen = []
    for _ in range(2):
        queue.enqueue(FIG1_PIETQL)
        done = worker.step()
        assert (done.state, done.result_json) == ("done", expected)
        executor = worker._executor
        pool = executor.backend._pool
        assert pool is not None  # the job did fan out
        probed = set(executor.aggregate_moft(world.context.moft("FMbus"), pid_of))
        assert probed and probed <= set(pool._processes)
        seen.append((executor, pool, set(pool._processes)))
    assert seen[0][0] is seen[1][0]
    assert seen[0][1] is seen[1][1]
    assert seen[0][2] == seen[1][2]
    worker.stop()
    assert worker._executor is None and executor.backend._pool is None
    # Stopped is not final: the next job builds a new executor.
    queue.enqueue(FIG1_SPEC)
    assert worker.step().state == "done"
    assert worker._executor is not executor
    worker.stop()


def test_execute_spec_closes_the_executor_it_built(fig1_service_world):
    import multiprocessing

    before = set(multiprocessing.active_children())
    execute_spec(FIG1_PIETQL, fig1_service_world, backend="processes", n_shards=2)
    assert set(multiprocessing.active_children()) <= before
