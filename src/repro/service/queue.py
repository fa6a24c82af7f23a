"""The durable job queue: states, leases, retries.

One job = one submitted :class:`~repro.service.spec.QuerySpec` plus its
lifecycle record.  The state machine::

                      submit
                        │
                        ▼
        ┌───────────► queued ──cancel──► cancelled
        │               │
        │             claim (lease granted)
        │               │
        │               ▼
   lease expired ◄── claimed ──start──► running
   or retryable         │                  │
   failure, with        └───── outcome ────┤
   attempts left                           │
        ▲                                  ▼
        │                  done (result + EXPLAIN + metrics persisted)
        │                  failed (non-retryable error)
        └───────────────── dead (retries exhausted / lease budget spent)

Claiming is *lease-based*: a claim hands the worker a visibility
timeout (``lease_until``).  A worker that crashes mid-job never reports
back; once the lease expires, :meth:`SQLiteJobQueue.release_expired`
(the reaper) puts the job back on the queue — or moves it to ``dead``
when its attempt budget is spent.  Late writes from a superseded worker
are rejected with :class:`~repro.errors.LeaseLostError` (ownership is
checked on every outcome), which is what makes double-execution
impossible to *record* even when it happens to *run*.

Retry bookkeeping mirrors the engine's
:class:`~repro.parallel.backends.RetryPolicy` vocabulary:
``max_retries`` is the number of *extra* claims a job may consume after
its first, so a job is re-queued while ``attempts <= max_retries`` and
goes to ``dead`` on the attempt after that.

There is one queue, :class:`SQLiteJobQueue`: one ``jobs`` table at a
path, which is a file or ``":memory:"``.

* A file queue survives process death and is shared across processes
  (the CLI ``submit`` verb enqueues into the file a ``serve`` process
  drains).  It runs in WAL mode with ``synchronous=FULL``: every
  committed transition is durable, a commit appends to the ``-wal``
  file instead of rewriting the journal, and readers in other processes
  do not block the writer.
* A ``":memory:"`` queue — what :class:`~repro.service.service
  .QueryService` builds when handed none — promises no durability: its
  jobs end with the queue object.  Every queue object opens its own
  connection, so two such queues (two default services) never share a
  job.

Either way, the threads of one process share the queue object's one
connection under its lock, and each transition is one transaction
(``enqueue`` takes its seq and inserts the row in the same commit).
The queue accepts an injectable ``clock`` (defaults to
:func:`time.time`) so lease expiry is testable without sleeping, and an
optional :class:`~repro.obs.PipelineStats` observer that receives the
service counters and the ``queue_depth`` / ``jobs_in_flight`` gauges.
Counts that run on every submit and transition (depth, a client's
in-flight jobs, the gauges) read only the active states, so their cost
does not grow with the job history; :meth:`SQLiteJobQueue.counts` still
reports every state.

Waiting is event-driven.  Each queue object keeps a change counter
under its lock, bumped and broadcast on one condition after every
``enqueue``, ``complete``, ``fail``, ``cancel`` and every
``release_expired`` that released something.  Idle workers,
``QueryService.wait`` and ``WorkerPool.drain`` read the counter, look,
and then block in :meth:`SQLiteJobQueue.wait_for_change` until it
moves, so an in-process submit or outcome wakes them at once.  The
counter cannot see another *process* writing the same file; those waits
fall back to a timeout (the pool's ``poll_s``).
"""

from __future__ import annotations

import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

from repro.errors import (
    JobNotFoundError,
    JobStateError,
    LeaseLostError,
    ServiceError,
)
from repro.obs import PipelineStats
from repro.service.spec import QuerySpec

T = TypeVar("T")

#: Every job state, in lifecycle order.
JOB_STATES: Tuple[str, ...] = (
    "queued", "claimed", "running", "done", "failed", "dead", "cancelled",
)

#: States a job never leaves.
TERMINAL_STATES: Tuple[str, ...] = ("done", "failed", "dead", "cancelled")

#: States that count against a client's in-flight cap.
ACTIVE_STATES: Tuple[str, ...] = ("queued", "claimed", "running")


@dataclass(frozen=True)
class Job:
    """One job record — an immutable snapshot of the queue's row."""

    job_id: str
    seq: int
    client_id: str
    spec_json: str
    state: str
    attempts: int
    max_retries: int
    submitted_at: float
    claimed_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    lease_until: Optional[float] = None
    worker_id: Optional[str] = None
    result_json: Optional[str] = None
    explain: Optional[str] = None
    error: Optional[str] = None
    fault_trace: Optional[str] = None
    metrics_json: Optional[str] = None

    @property
    def spec(self) -> QuerySpec:
        """The parsed query spec."""
        return QuerySpec.from_json(self.spec_json)

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def retries(self) -> int:
        """Claims consumed beyond the first."""
        return max(0, self.attempts - 1)

    def describe(self) -> str:
        label = f"{self.job_id} [{self.state}] attempts={self.attempts}"
        if self.error:
            label += f" error={self.error!r}"
        return label


_COLUMNS = (
    "job_id", "seq", "client_id", "spec_json", "state", "attempts",
    "max_retries", "submitted_at", "claimed_at", "started_at",
    "finished_at", "lease_until", "worker_id", "result_json", "explain",
    "error", "fault_trace", "metrics_json",
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id       TEXT PRIMARY KEY,
    seq          INTEGER NOT NULL,
    client_id    TEXT NOT NULL,
    spec_json    TEXT NOT NULL,
    state        TEXT NOT NULL,
    attempts     INTEGER NOT NULL,
    max_retries  INTEGER NOT NULL,
    submitted_at REAL NOT NULL,
    claimed_at   REAL,
    started_at   REAL,
    finished_at  REAL,
    lease_until  REAL,
    worker_id    TEXT,
    result_json  TEXT,
    "explain"    TEXT,
    error        TEXT,
    fault_trace  TEXT,
    metrics_json TEXT
);
CREATE INDEX IF NOT EXISTS jobs_state_seq ON jobs (state, seq);
CREATE TABLE IF NOT EXISTS job_seq (value INTEGER NOT NULL);
"""


class SQLiteJobQueue:
    """The job queue: one SQLite ``jobs`` table at ``path``.

    ``path`` is a file, or ``":memory:"`` for a queue private to this
    object (see the module docstring for what each promises).  One
    connection per queue object (``check_same_thread`` off, every access
    under the object's lock); cross-process claims serialize through
    ``BEGIN IMMEDIATE`` transactions, so a job file shared by a
    ``submit`` CLI process and a ``serve`` worker pool behaves like one
    queue.  A file is in WAL mode: copy ``<path>-wal`` and
    ``<path>-shm`` with it while any connection is open (the last one to
    close folds the log back into the file).
    """

    def __init__(
        self,
        path: str,
        clock: Callable[[], float] = time.time,
        obs: Optional[PipelineStats] = None,
    ) -> None:
        self.path = str(path)
        self.clock = clock
        self.obs = obs if obs is not None else PipelineStats()
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        self._changes = 0
        try:
            self._conn = sqlite3.connect(
                self.path, check_same_thread=False, timeout=30.0
            )
            # (A ":memory:" database keeps its journal in memory and
            # answers this pragma with "memory".)
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=FULL")
        except sqlite3.Error as exc:
            raise ServiceError(
                f"cannot open job queue database {self.path!r}: {exc}"
            ) from exc
        self._conn.row_factory = sqlite3.Row
        with self._lock, self._conn:
            self._conn.executescript(_SCHEMA)
            row = self._conn.execute("SELECT value FROM job_seq").fetchone()
            if row is None:
                self._conn.execute("INSERT INTO job_seq VALUES (0)")

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- the change signal ---------------------------------------------------

    @property
    def changes(self) -> int:
        """The change counter: read it *before* looking at the queue, then
        :meth:`wait_for_change` on the value read, and no wake-up is lost."""
        return self._changes

    def wake(self) -> None:
        """Bump the change counter and wake every waiter.

        Called after each transition that can end a wait; also by
        :meth:`~repro.service.worker.WorkerPool.stop`, whose idle workers
        are blocked here rather than on the stop event.
        """
        with self._changed:
            self._changes += 1
            self._changed.notify_all()

    def wait_for_change(self, seen: int, timeout: float) -> bool:
        """Block while the counter still equals ``seen``, at most
        ``timeout`` seconds; True when it moved."""
        with self._changed:
            return self._changed.wait_for(
                lambda: self._changes != seen, timeout
            )

    def wait_until(
        self, look: Callable[[], T], timeout: float, poll_s: float
    ) -> T:
        """Call ``look()`` until it returns something truthy, for at most
        ``timeout`` seconds; return its last value.

        The counter is read before each look, so a change landing
        between the look and the wait ends the wait at once; ``poll_s``
        caps each wait, which is how a write by another process to the
        same file is seen.
        """
        deadline = time.monotonic() + timeout
        while True:
            seen = self._changes
            found = look()
            remaining = deadline - time.monotonic()
            if found or remaining <= 0:
                return found
            self.wait_for_change(seen, min(remaining, poll_s))

    # -- storage -------------------------------------------------------------

    @contextmanager
    def _transaction(self) -> Iterator[None]:
        # The connection's context commits once on exit (rolls back on
        # an exception); the statements inside do not commit.
        with self._lock, self._conn:
            yield

    def _select(self, where: str, params: Tuple = ()) -> List[Job]:
        with self._lock:
            rows = self._conn.execute(
                f"SELECT * FROM jobs WHERE {where}", params
            ).fetchall()
        return [Job(**{name: row[name] for name in _COLUMNS}) for row in rows]

    def _store(self, job: Job) -> None:
        values = [getattr(job, name) for name in _COLUMNS]
        placeholders = ", ".join("?" for _ in _COLUMNS)
        quoted = ", ".join(f'"{name}"' for name in _COLUMNS)
        with self._lock:
            self._conn.execute(
                f"INSERT OR REPLACE INTO jobs ({quoted}) "
                f"VALUES ({placeholders})",
                values,
            )

    def _counts(self, states: Tuple[str, ...]) -> Dict[str, int]:
        """Job count per state, over ``states`` only (absent states are
        omitted)."""
        # ``state IN (...)`` is a search of the (state, seq) index: only
        # the named states' entries are read, however long the history.
        marks = ", ".join("?" for _ in states)
        with self._lock:
            rows = self._conn.execute(
                f"SELECT state, COUNT(*) AS n FROM jobs "
                f"WHERE state IN ({marks}) GROUP BY state",
                states,
            ).fetchall()
        return {row["state"]: row["n"] for row in rows}

    def _refresh_gauges(self) -> None:
        counts = self._counts(ACTIVE_STATES)
        self.obs.gauge("queue_depth", counts.get("queued", 0))
        self.obs.gauge("jobs_in_flight", sum(counts.values()))

    # -- the state machine ---------------------------------------------------

    def enqueue(
        self,
        spec: QuerySpec,
        client_id: str = "anonymous",
        max_retries: int = 2,
    ) -> Job:
        """Append a job in state ``queued``; returns the stored record."""
        if max_retries < 0:
            raise ServiceError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        with self._transaction():
            self._conn.execute("UPDATE job_seq SET value = value + 1")
            seq = self._conn.execute(
                "SELECT value FROM job_seq"
            ).fetchone()[0]
            job = Job(
                job_id=f"J{seq:06d}",
                seq=seq,
                client_id=str(client_id),
                spec_json=spec.to_json(),
                state="queued",
                attempts=0,
                max_retries=int(max_retries),
                submitted_at=self.clock(),
            )
            self._store(job)
            self.obs.incr("jobs_submitted")
            self._refresh_gauges()
        self.wake()
        return job

    def claim(self, worker_id: str, lease_s: float = 30.0) -> Optional[Job]:
        """Atomically hand the oldest queued job to ``worker_id``.

        The job moves to ``claimed`` with a lease expiring ``lease_s``
        seconds from now; its attempt counter advances.  Returns None
        when nothing is queued.  Claim uniqueness holds under thread
        *and* process contention: the guarded ``UPDATE ... WHERE state =
        'queued'`` runs inside an immediate transaction, re-checking the
        state under the write lock; a row another process claimed since
        our SELECT updates zero rows, and we retry on the next candidate.
        """
        if lease_s <= 0:
            raise ServiceError(f"lease_s must be positive, got {lease_s}")
        with self._lock:
            while True:
                queued = self._select("state = 'queued' ORDER BY seq LIMIT 1")
                if not queued:
                    return None
                candidate = queued[0]
                now = self.clock()
                with self._conn:
                    self._conn.execute("BEGIN IMMEDIATE")
                    cursor = self._conn.execute(
                        "UPDATE jobs SET state = 'claimed', "
                        "attempts = attempts + 1, claimed_at = ?, "
                        "lease_until = ?, worker_id = ? "
                        "WHERE job_id = ? AND state = 'queued'",
                        (
                            now,
                            now + float(lease_s),
                            str(worker_id),
                            candidate.job_id,
                        ),
                    )
                    if cursor.rowcount != 1:
                        continue  # lost the race; try the next candidate
                claimed = self.get(candidate.job_id)
                self.obs.incr("jobs_claimed")
                self.obs.record(
                    "service_queue_wait",
                    max(0.0, now - claimed.submitted_at),
                )
                self._refresh_gauges()
                return claimed

    def _owned(self, job_id: str, worker_id: str) -> Job:
        job = self.get(job_id)
        if job.state not in ("claimed", "running") or (
            job.worker_id != worker_id
        ):
            raise LeaseLostError(
                f"worker {worker_id!r} no longer holds the lease on "
                f"{job_id} (state={job.state!r}, "
                f"holder={job.worker_id!r})"
            )
        return job

    def start(self, job_id: str, worker_id: str) -> Job:
        """Mark a claimed job ``running`` (ownership checked)."""
        with self._transaction():
            job = self._owned(job_id, worker_id)
            started = replace(
                job, state="running", started_at=self.clock()
            )
            self._store(started)
            return started

    def extend_lease(
        self, job_id: str, worker_id: str, lease_s: float
    ) -> Job:
        """Heartbeat: push the owned job's visibility timeout forward."""
        with self._transaction():
            job = self._owned(job_id, worker_id)
            extended = replace(
                job, lease_until=self.clock() + float(lease_s)
            )
            self._store(extended)
            return extended

    def record_fault(self, job_id: str, description: str) -> Job:
        """Append one injected-fault description to the job's trace.

        Written by workers *before* a simulated crash, so a job that
        later lands in ``dead`` still carries the full fault history.
        """
        with self._transaction():
            job = self.get(job_id)
            trace = (
                description
                if not job.fault_trace
                else f"{job.fault_trace}; {description}"
            )
            updated = replace(job, fault_trace=trace)
            self._store(updated)
            return updated

    def complete(
        self,
        job_id: str,
        worker_id: str,
        result_json: str,
        explain: Optional[str] = None,
        metrics_json: Optional[str] = None,
    ) -> Job:
        """Record a successful outcome; the job becomes ``done``."""
        with self._transaction():
            job = self._owned(job_id, worker_id)
            now = self.clock()
            done = replace(
                job,
                state="done",
                finished_at=now,
                lease_until=None,
                result_json=result_json,
                explain=explain,
                metrics_json=metrics_json,
            )
            self._store(done)
            self.obs.incr("jobs_completed")
            self._refresh_gauges()
        self.wake()
        return done

    def fail(
        self,
        job_id: str,
        worker_id: str,
        error: str,
        retryable: bool = True,
        metrics_json: Optional[str] = None,
    ) -> Job:
        """Record a failed attempt.

        Non-retryable errors (malformed queries — retrying cannot help)
        move the job straight to ``failed``.  Retryable ones re-queue it
        while the attempt budget lasts, then move it to ``dead``.
        """
        with self._transaction():
            job = self._owned(job_id, worker_id)
            now = self.clock()
            if not retryable:
                outcome = replace(
                    job,
                    state="failed",
                    finished_at=now,
                    lease_until=None,
                    error=str(error),
                    metrics_json=metrics_json,
                )
                self.obs.incr("jobs_failed")
            elif job.attempts <= job.max_retries:
                outcome = replace(
                    job,
                    state="queued",
                    lease_until=None,
                    worker_id=None,
                    error=str(error),
                    metrics_json=metrics_json,
                )
                self.obs.incr("jobs_requeued")
            else:
                outcome = replace(
                    job,
                    state="dead",
                    finished_at=now,
                    lease_until=None,
                    error=str(error),
                    metrics_json=metrics_json,
                )
                self.obs.incr("jobs_dead")
            self._store(outcome)
            self._refresh_gauges()
        self.wake()
        return outcome

    def release_expired(self, now: Optional[float] = None) -> List[Job]:
        """The reaper: re-queue (or kill) jobs whose lease expired.

        A claimed/running job past its ``lease_until`` was abandoned by
        a crashed or wedged worker.  With attempt budget left it goes
        back to ``queued`` (a later claim re-runs it from the stored
        spec); otherwise it is ``dead`` with a lease-expiry error.
        Returns the released records, oldest first.
        """
        released: List[Job] = []
        with self._transaction():
            now = self.clock() if now is None else float(now)
            leased = self._select(
                "state IN ('claimed', 'running') ORDER BY seq"
            )
            for job in leased:
                if job.lease_until is None or job.lease_until > now:
                    continue
                error = (
                    f"lease expired after attempt {job.attempts} "
                    f"(worker {job.worker_id!r} presumed dead)"
                )
                if job.attempts <= job.max_retries:
                    outcome = replace(
                        job,
                        state="queued",
                        lease_until=None,
                        worker_id=None,
                        error=error,
                    )
                    self.obs.incr("jobs_reclaimed")
                else:
                    outcome = replace(
                        job,
                        state="dead",
                        finished_at=now,
                        lease_until=None,
                        error=error,
                    )
                    self.obs.incr("jobs_reclaimed")
                    self.obs.incr("jobs_dead")
                self._store(outcome)
                released.append(outcome)
            if released:
                self._refresh_gauges()
        if released:
            self.wake()
        return released

    def cancel(self, job_id: str) -> Job:
        """Cancel a still-queued job; anything further along refuses."""
        with self._transaction():
            job = self.get(job_id)
            if job.state != "queued":
                raise JobStateError(
                    f"cannot cancel {job_id}: state is {job.state!r} "
                    f"(only queued jobs are cancellable)"
                )
            cancelled = replace(
                job, state="cancelled", finished_at=self.clock()
            )
            self._store(cancelled)
            self.obs.incr("jobs_cancelled")
            self._refresh_gauges()
        self.wake()
        return cancelled

    # -- introspection -------------------------------------------------------

    def get(self, job_id: str) -> Job:
        """The job record, or :class:`JobNotFoundError`."""
        found = self._select("job_id = ?", (job_id,))
        if not found:
            raise JobNotFoundError(f"no job with id {job_id!r}")
        return found[0]

    def depth(self) -> int:
        """Number of currently queued jobs."""
        return self._counts(("queued",)).get("queued", 0)

    def in_flight(self, client_id: str) -> int:
        """This client's jobs in an active (non-terminal) state."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) AS n FROM jobs WHERE client_id = ? "
                "AND state IN ('queued', 'claimed', 'running')",
                (str(client_id),),
            ).fetchone()
        return int(row["n"])

    def counts(self) -> Dict[str, int]:
        """Job count per state (every state present, zeros included)."""
        counts = self._counts(JOB_STATES)
        return {state: counts.get(state, 0) for state in JOB_STATES}

    def active(self) -> int:
        """Jobs anywhere between submission and a terminal state."""
        return sum(self._counts(ACTIVE_STATES).values())


__all__ = [
    "ACTIVE_STATES",
    "JOB_STATES",
    "TERMINAL_STATES",
    "Job",
    "SQLiteJobQueue",
]
