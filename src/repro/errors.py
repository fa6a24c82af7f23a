"""Shared exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  Subsystems define
narrower types here (rather than per-module) so that cross-layer code, e.g.
the query evaluator calling into geometry and OLAP, can discriminate error
classes without importing implementation modules.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GeometryError(ReproError):
    """Invalid geometric construction or unsupported geometric operation."""


class SchemaError(ReproError):
    """Invalid dimension / fact-table schema definition."""


class InstanceError(ReproError):
    """A dimension or GIS instance violates its schema."""


class RollupError(InstanceError):
    """A rollup function or relation is missing, ambiguous or inconsistent."""


class AggregationError(ReproError):
    """An aggregate operation was applied to incompatible data."""


class QueryError(ReproError):
    """A constraint formula or aggregate query is malformed."""


class EvaluationError(QueryError):
    """A well-formed query could not be evaluated against the instance."""


class PietQLError(ReproError):
    """Base class for Piet-QL language errors."""


class PietQLSyntaxError(PietQLError):
    """The Piet-QL text could not be tokenized or parsed."""

    def __init__(self, message: str, line: int = 1, column: int = 0) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class PietQLExecutionError(PietQLError):
    """A parsed Piet-QL query referenced unknown layers, levels or measures."""


class TrajectoryError(ReproError):
    """Invalid trajectory sample or trajectory operation."""


class MoftStorageError(TrajectoryError):
    """A columnar MOFT file or image is unreadable or unwritable.

    Raised by :mod:`repro.mo.storage` for every defect in the on-disk
    columnar format — truncated body, bad magic, unsupported version,
    header/section bounds violations, corrupt per-object index — and on
    save for tables whose object identifiers the format cannot encode.
    The contract is *typed-or-nothing*: a corrupt file surfaces as this
    class, never as a raw ``numpy``/``struct``/``json`` traceback.
    """


class PreAggError(ReproError):
    """A pre-aggregation store cannot be built, updated or queried."""


class IngestError(ReproError):
    """A streaming-ingest submission or snapshot operation is invalid.

    Raised by :mod:`repro.ingest` for malformed sample batches (ragged
    columns, unregistered instants, duplicate ``(oid, t)`` pairs within
    the accepted stream) and for misuse of the version chain (e.g.
    publishing an empty segment).  Late-beyond-watermark samples are
    *not* errors — they are routed to the side channel and counted.
    """


class ServiceError(ReproError):
    """Base class for query-service failures (:mod:`repro.service`)."""


class AdmissionError(ServiceError):
    """A submission was rejected before it reached the job queue.

    Subclasses say *why*; the service CLI maps every admission rejection
    to exit status 2 with a single ``error: ...`` line, same as any
    other typed failure.
    """


class QueueFullError(AdmissionError):
    """The queue's depth cap is reached; the submission was not enqueued."""


class ClientThrottledError(AdmissionError):
    """The submitting client hit its per-client in-flight job cap."""


class JobNotFoundError(ServiceError):
    """No job with the requested id exists in the queue."""


class JobStateError(ServiceError):
    """The job exists but is in the wrong state for the operation.

    E.g. asking for the result of a still-queued job, or cancelling a
    job that a worker already claimed.
    """


class LeaseLostError(ServiceError):
    """A worker tried to act on a job whose lease it no longer holds.

    Raised when a worker reports completion or failure for a job that
    the lease reaper already re-queued (and possibly another worker
    re-claimed).  The late worker's result is discarded — exactly-one
    recorded outcome per attempt chain is the claim-uniqueness
    guarantee.
    """


class JobFailedError(ServiceError):
    """A terminal ``failed``/``dead`` job's result was requested.

    Attributes
    ----------
    error:
        The recorded failure message of the job's last attempt.
    faults:
        The injected-fault trace recorded on the job (empty outside
        fault-injection tests), as human-readable strings.
    """

    def __init__(
        self, message: str, error: "str | None" = None, faults: tuple = ()
    ) -> None:
        super().__init__(message)
        self.error = error
        self.faults = tuple(faults)


class ShardExecutionError(EvaluationError):
    """A sharded query could not produce a verified-complete result.

    Raised by the resilient execution layer (:mod:`repro.parallel`) when a
    shard task fails past its retry/degradation budget, or when the
    result-completeness check finds a shard unaccounted for before the
    merge.  The engine's contract is *exact-or-error*: a partial fan-out
    is never silently merged into an under-counted answer — it surfaces
    here instead.

    Attributes
    ----------
    failures:
        Tuple of per-attempt failure records (``repro.parallel.backends
        .TaskFailure``): which task, which attempt, what went wrong.
    faults:
        The injected-fault trace — the ``repro.faults.FaultSpec`` entries
        of a :class:`~repro.faults.FaultPlan` that actually fired during
        the run (empty outside fault-injection tests).
    """

    def __init__(
        self,
        message: str,
        failures: tuple = (),
        faults: tuple = (),
    ) -> None:
        super().__init__(message)
        self.failures = tuple(failures)
        self.faults = tuple(faults)


class ShardMissing(Exception):
    """A shard task reached a process that lacks what its payload only
    names: the shared-memory image of a key-only shard descriptor (a new
    worker, one of a replaced pool, or one that evicted the image), or
    the geometry state of a counter that travelled as its answer's key
    (a layer the process never held).  Not a failure: the task needs
    re-sending with the block and the geometries
    (:func:`repro.parallel.backends.resilient_map`'s ``resend``)."""

