"""A worker keeps one sharded executor for all its jobs.

``execute_spec`` used to build an executor per job, so a ``processes``
service forked a pool per job; the worker now builds its executor with
the first job and closes it in ``stop()``.  Whether a job fans out is
the planner's choice: the pool test holds the table's shards resident,
so that its Piet-QL jobs do.
"""

from __future__ import annotations

import os

from repro.service import QuerySpec, SQLiteJobQueue, Worker
from repro.service.worker import execute_spec


FIG1_PIETQL = QuerySpec.pietql(
    "SELECT layer.neighborhoods FROM Fig1 "
    "WHERE intersection(layer.rivers, layer.neighborhoods) "
    "AND contains(layer.neighborhoods, layer.schools) "
    "| COUNT OBJECTS FROM FMbus THROUGH RESULT"
)


#: A 10k-row city: with the table's shards resident, a two-process
#: fan-out prices below the in-process scan.
SYNTH_PIETQL = QuerySpec.pietql(
    "SELECT layer.cities FROM City "
    "WHERE intersection(layer.cities, layer.neighborhoods) "
    "| COUNT OBJECTS FROM FM THROUGH RESULT"
)


def pid_of(shard):
    return {os.getpid(): 1}


def test_consecutive_processes_jobs_share_one_pool(synth_service_world):
    world = synth_service_world
    moft = world.context.moft("FM")
    queue = SQLiteJobQueue(":memory:")
    worker = Worker(queue, world, backend="processes", n_shards=2)
    expected = execute_spec(SYNTH_PIETQL, world)[0]
    # Resident shards price the jobs' fan-out below the in-process scan.
    worker._sharded().aggregate_moft(moft, pid_of)
    seen = []
    for _ in range(2):
        executor = worker._executor
        fanned = executor.obs.count("shard_count")
        queue.enqueue(SYNTH_PIETQL)
        done = worker.step()
        assert (done.state, done.result_json) == ("done", expected)
        assert worker._executor is executor
        assert executor.obs.count("shard_count") == fanned + 2  # it fanned out
        pool = executor.backend._pool
        assert pool is not None
        probed = set(executor.aggregate_moft(moft, pid_of))
        assert probed and probed <= set(pool._processes)
        seen.append((executor, pool, set(pool._processes)))
    assert seen[0][0] is seen[1][0]
    assert seen[0][1] is seen[1][1]
    assert seen[0][2] == seen[1][2]
    worker.stop()
    assert worker._executor is None and executor.backend._pool is None
    # Stopped is not final: the next job builds a new executor.
    queue.enqueue(SYNTH_PIETQL)
    assert worker.step().state == "done"
    assert worker._executor is not executor
    worker.stop()


def test_execute_spec_closes_the_executor_it_built(fig1_service_world):
    import multiprocessing

    before = set(multiprocessing.active_children())
    execute_spec(FIG1_PIETQL, fig1_service_world, backend="processes", n_shards=2)
    assert set(multiprocessing.active_children()) <= before
