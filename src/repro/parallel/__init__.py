"""Sharding + parallel execution for MOFT queries.

``MOFT.partition_by_objects`` / ``partition_by_time`` cut the columnar
fact table into shard MOFTs; :class:`ShardedExecutor` fans query work out
over a pluggable backend (``serial`` / ``processes``) and
merges exact partial results; :class:`ShardedPietQLExecutor` does the
same for Piet-QL queries.  The resilient layer (:class:`RetryPolicy`,
:func:`resilient_map`, executor ``failure_mode``) adds per-task
timeouts, bounded deterministic retries and backend degradation with an
exact-or-error guarantee: results are bit-equal to the serial scan or a
typed :class:`~repro.errors.ShardExecutionError` is raised.  See
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
from repro.parallel.merge import (
    intersect_ids,
    sum_counts,
    sum_groups,
    union_ids,
)

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
    "union_ids",
    "intersect_ids",
    "sum_groups",
    "sum_counts",
]
