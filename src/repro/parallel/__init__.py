"""Sharding + parallel execution for MOFT queries.

``MOFT.partition_by_objects`` cuts the columnar fact table into shard
MOFTs holding whole objects; :class:`ShardedExecutor` fans query work
out over its ``n_shards`` shards on a pluggable backend (``serial`` /
``processes``, or an :class:`ExecutionBackend` the caller hands in,
which implements ``run_tasks``) and merges exact partial results;
:class:`ShardedPietQLExecutor` gives Piet-QL queries the same executor.
Every fan-out runs through the resilient layer (:class:`RetryPolicy`,
:func:`resilient_map`, executor ``failure_mode``): per-task timeouts,
bounded deterministic retries and backend degradation with an
exact-or-error guarantee — results are bit-equal to the serial scan or
a typed :class:`~repro.errors.ShardExecutionError` is raised.  See
``docs/API.md`` ("repro.parallel") for merge semantics and the
differential-oracle harness that verifies every optimized path against
the serial seed implementation.
"""

from repro.parallel.backends import (
    BACKENDS,
    DEGRADATION_ORDER,
    ExecutionBackend,
    ProcessBackend,
    RetryPolicy,
    SerialBackend,
    TaskFailure,
    available_cpus,
    degraded_backend,
    get_backend,
    resilient_map,
)
from repro.parallel.executor import ShardedExecutor, ShardedPietQLExecutor
from repro.parallel.merge import sum_groups

__all__ = [
    "BACKENDS",
    "DEGRADATION_ORDER",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "RetryPolicy",
    "TaskFailure",
    "available_cpus",
    "degraded_backend",
    "get_backend",
    "resilient_map",
    "ShardedExecutor",
    "ShardedPietQLExecutor",
    "sum_groups",
]
