"""The query service layer: durable jobs over the sharded engine.

The engine below this package is a library — every query runs
synchronously in the caller's process.  :mod:`repro.service` turns it
into a long-running service front:

* :mod:`~repro.service.spec` — serializable query specs (builder-API
  ``through`` counts and Piet-QL strings) plus canonical result JSON;
* :mod:`~repro.service.queue` — the job queue,
  :class:`SQLiteJobQueue` on a file (durable, shared across processes)
  or on ``":memory:"`` (private to one queue object): states ``queued →
  claimed → running → done | failed | dead``, lease-based claiming
  with visibility timeouts, bounded retries;
* :mod:`~repro.service.admission` — queue-depth and per-client
  in-flight caps with typed rejections;
* :mod:`~repro.service.worker` — workers that claim jobs, execute them
  through the cost-based planner and
  :class:`~repro.parallel.ShardedExecutor`, and persist results plus
  EXPLAIN plans; the lease reaper that re-queues crashed workers' jobs;
* :mod:`~repro.service.service` — the :class:`QueryService` facade
  (``submit`` / ``status`` / ``result`` / ``cancel``) the CLI verbs
  ``python -m repro serve|submit|status|result`` are built on;
* :mod:`~repro.service.worlds` — named evaluation worlds
  (``fig1`` / ``synth``) a service instance binds to.

See ``docs/service.md`` for queue states, lease/retry semantics and the
metrics glossary.
"""

from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.queue import (
    JOB_STATES,
    TERMINAL_STATES,
    Job,
    SQLiteJobQueue,
)
from repro.service.service import QueryService
from repro.service.spec import QuerySpec, canonical_json, result_payload
from repro.service.worker import Worker, WorkerPool, execute_spec
from repro.service.worlds import ServiceWorld, load_world

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "AdmissionController",
    "AdmissionPolicy",
    "Job",
    "QueryService",
    "QuerySpec",
    "SQLiteJobQueue",
    "ServiceWorld",
    "Worker",
    "WorkerPool",
    "canonical_json",
    "execute_spec",
    "load_world",
    "result_payload",
]
