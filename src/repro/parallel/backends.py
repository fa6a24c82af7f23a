"""Pluggable execution backends for sharded query evaluation.

A backend is anything with a ``map(fn, items)`` returning the results in
item order.  Two are built in:

* :class:`SerialBackend` — a plain loop in the calling thread; the
  baseline every differential test compares against, and the right
  choice for tiny inputs where fan-out overhead dominates;
* :class:`ProcessBackend` — ``concurrent.futures.ProcessPoolExecutor``;
  true multi-core parallelism for the segment scans, which hold the
  GIL.  Task functions must be module-level and payloads picklable.

The process backend owns **one pool per instance**: constructing the
backend starts nothing, the first multi-item ``map`` / ``run_tasks``
builds the pool, and every later call reuses it — the workers are forked
then (and see module state as of then) and keep what they cache between
fan-outs.  A pool that broke (a worker died) or holds a timed-out
straggler is abandoned and the next call builds a fresh one;
:meth:`ExecutionBackend.close` shuts the pool down, and a backend that
is simply dropped, or still open at interpreter exit, is shut down by a
finalizer.  Pickles of a backend carry its sizing, never its pool.

:func:`get_backend` resolves a backend from its registry name, so
callers can say ``backend="processes"``, and passes an
:class:`ExecutionBackend` instance through: any other way of running
the tasks (a thread pool, say) is a subclass the caller hands in.

On top of plain ``map`` sits the *resilient* layer:

* ``run_tasks(fn, items, timeout)`` — per-item guarded execution: every
  item yields an outcome (value, exception, or timeout) instead of the
  first worker exception aborting the whole fan-out.  The process
  backend enforces the timeout preemptively via futures; the serial
  backend checks elapsed time after the fact (a single thread cannot
  preempt itself);
* :class:`RetryPolicy` — per-task timeout, bounded retry budget, and a
  deterministic exponential backoff (no jitter: chaos tests must
  replay);
* :func:`resilient_map` — the retry/degrade loop used by
  ``ShardedExecutor`` when a failure mode other than plain ``raise`` (or
  a :class:`~repro.faults.FaultPlan`) is configured.  It guarantees the
  *exact-or-error* contract: either every task's value is accounted for,
  in item order, or a typed :class:`~repro.errors.ShardExecutionError`
  carrying the failure records and the injected-fault trace is raised.
  Backend degradation is the one step of :data:`DEGRADATION_ORDER`
  (``processes`` → ``serial``), resetting the retry budget of the tasks
  that exhausted it at the richer tier.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from concurrent.futures import BrokenExecutor, Executor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.errors import EvaluationError, ShardExecutionError
from repro.obs import PipelineStats

T = TypeVar("T")
R = TypeVar("R")

#: One task attempt's outcome: (status, value, error, seconds) where
#: status is "ok" / "error" / "timeout".
AttemptOutcome = Tuple[str, Optional[R], Optional[BaseException], float]


def _timed_call(fn: Callable[[T], R], item: T) -> "AttemptOutcome[R]":
    """Run one task guarded: capture the exception and the wall time.

    Runs inside the worker (module-level, hence picklable via
    ``functools.partial`` for the processes backend); the measured
    seconds are the worker's own wall time, honest across process
    boundaries.
    """
    start = time.perf_counter()
    try:
        value = fn(item)
    except Exception as exc:
        return ("error", None, exc, time.perf_counter() - start)
    return ("ok", value, None, time.perf_counter() - start)


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware, never below 1)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)


class ExecutionBackend:
    """Maps a function over shard payloads; subclasses define the how."""

    #: Registry name (also used in reports and error messages).
    name = "base"

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, returning results in item order."""
        raise NotImplementedError

    def run_tasks(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        timeout: Optional[float] = None,
    ) -> List["AttemptOutcome[R]"]:
        """Guarded per-item execution: one outcome per item, in order.

        The default (used by the serial backend) runs items in-process;
        a single thread cannot preempt itself, so ``timeout`` is checked
        *after* each item completes — an overdue attempt is reported as
        a timeout even though its work finished, keeping timeout
        semantics uniform across backends (the retry loop will redo
        it).  The process backend overrides this with preemptive waits.
        """
        outcomes: List[AttemptOutcome[R]] = []
        for item in items:
            outcome = _timed_call(fn, item)
            if (
                timeout is not None
                and outcome[0] == "ok"
                and outcome[3] > timeout
            ):
                outcome = ("timeout", None, None, outcome[3])
            outcomes.append(outcome)
        return outcomes

    def close(self) -> None:
        """Release what the backend keeps between calls (here: nothing).
        Idempotent; a closed backend starts afresh on its next call."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """The seed path: evaluate shards one after another, in-process."""

    name = "serial"

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return [fn(item) for item in items]


class ProcessBackend(ExecutionBackend):
    """Fan shards out over one resident pool of worker processes.

    ``fn`` must be defined at module level and every payload picklable —
    the sharded executor's task functions satisfy both.  The pool is
    sized for the largest fan-out seen so far, capped by ``max_workers``
    (default: the available CPUs): a call that wants more workers than
    the pool has replaces it, once, with a larger one.
    """

    name = "processes"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise EvaluationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.max_workers = max_workers
        self._start_unpooled()

    def _start_unpooled(self) -> None:
        # Submissions hold the lock, so a pool is never replaced between
        # one call's submits; results are collected outside it.
        self._lock = threading.Lock()
        self._pool: Optional[Executor] = None
        self._pool_workers = 0
        self._finalizer: Optional[weakref.finalize] = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in ("_lock", "_pool", "_pool_workers", "_finalizer"):
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._start_unpooled()

    def _workers_for(self, n_items: int) -> int:
        limit = self.max_workers or available_cpus()
        return max(1, min(limit, n_items))

    def _pool_for(self, n_items: int) -> Executor:
        """The resident pool, built or enlarged as ``n_items`` tasks
        call for (the caller holds the lock)."""
        workers = self._workers_for(n_items)
        if self._pool is None or workers > self._pool_workers:
            # (A smaller pool first finishes what it has in flight.)
            self._release(self._pool, abandon=False)
            self._pool = ProcessPoolExecutor(max_workers=workers)
            self._pool_workers = workers
            # For backends that are dropped, or open at interpreter
            # exit: neither must leave workers behind.
            self._finalizer = weakref.finalize(
                self, self._pool.shutdown, wait=False
            )
        return self._pool

    def _release(self, pool: Optional[Executor], abandon: bool) -> None:
        """Shut ``pool`` down, forgetting it if it is the resident one
        (the caller holds the lock).  ``abandon`` cancels what has not
        started and waits for nothing — a straggler cannot wedge the
        coordinator, a broken pool has nothing left to wait for."""
        if pool is None:
            return
        if pool is self._pool:
            self._pool = None
            self._pool_workers = 0
            self._finalizer.detach()
        pool.shutdown(wait=not abandon, cancel_futures=abandon)

    def close(self) -> None:
        """Shut the resident pool down and wait for its workers to end."""
        with self._lock:
            self._release(self._pool, abandon=False)

    def _on_pool(
        self, n_items: int, submit: Callable[[Executor], R]
    ) -> Tuple[Executor, R]:
        """``submit(pool)`` on the resident pool — built, enlarged or,
        when a worker died while it sat idle, replaced first."""
        with self._lock:
            pool = self._pool_for(n_items)
            try:
                return pool, submit(pool)
            except BrokenExecutor:
                self._release(pool, abandon=True)
                pool = self._pool_for(n_items)
                return pool, submit(pool)

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        if len(items) <= 1:
            return [fn(item) for item in items]
        # (``Executor.map`` submits every item before it returns.)
        pool, results = self._on_pool(
            len(items), lambda pool: pool.map(fn, items)
        )
        try:
            return list(results)
        except BrokenExecutor:
            with self._lock:
                self._release(pool, abandon=True)
            raise

    def run_tasks(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        timeout: Optional[float] = None,
    ) -> List["AttemptOutcome[R]"]:
        """Guarded pool execution with a preemptive per-task timeout.

        Each item becomes its own future; ``timeout`` bounds the wait on
        each future from the moment the collector reaches it.  A
        timed-out future is cancelled and abandoned (its worker may
        still finish, but the result is discarded — the retry loop owns
        redoing the task) together with the pool it runs in, without
        waiting: a straggler can neither wedge the coordinator nor sit
        in the way of the retry, which gets a fresh pool.  So does the
        call after a pool broke (a worker process died).
        """
        if not items:
            return []
        pool, futures = self._on_pool(
            len(items),
            lambda pool: [
                pool.submit(_timed_call, fn, item) for item in items
            ],
        )
        abandon = False
        outcomes: List[AttemptOutcome[R]] = []
        for future in futures:
            try:
                outcomes.append(future.result(timeout=timeout))
            except FuturesTimeoutError:
                future.cancel()
                abandon = True
                outcomes.append(
                    ("timeout", None, None, float(timeout))
                )
            except Exception as exc:
                # Pool infrastructure failure (a worker process died,
                # a payload failed to pickle, ...) — the task itself
                # guards its own exceptions in _timed_call.
                abandon = abandon or isinstance(exc, BrokenExecutor)
                outcomes.append(("error", None, exc, 0.0))
        if abandon:
            with self._lock:
                self._release(pool, abandon=True)
        return outcomes


#: Name -> backend class, for ``backend="<name>"`` resolution.
BACKENDS = {
    SerialBackend.name: SerialBackend,
    ProcessBackend.name: ProcessBackend,
}


def get_backend(
    backend: "str | ExecutionBackend", max_workers: Optional[int] = None
) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through unchanged)."""
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        cls = BACKENDS[backend]
    except KeyError:
        raise EvaluationError(
            f"unknown backend {backend!r}; expected one of "
            f"{sorted(BACKENDS)} or an ExecutionBackend instance"
        ) from None
    if cls is SerialBackend:
        return cls()
    return cls(max_workers=max_workers)


# -- the resilient layer -------------------------------------------------------

#: Backend-degradation ladder: a failure tier steps one name right.
DEGRADATION_ORDER: Tuple[str, ...] = ("processes", "serial")


@dataclass(frozen=True)
class RetryPolicy:
    """How the resilient fan-out treats a failing shard task.

    Parameters
    ----------
    max_retries:
        Extra attempts granted per task *per backend tier* (2 means up
        to three tries before the task escalates — to degradation under
        ``failure_mode="degrade"``, to a typed error otherwise).
    timeout_s:
        Per-task timeout in seconds (None: no timeout).  The process
        backend enforces it preemptively; the serial backend checks
        after the fact.  Injected latency faults count against it.
    backoff_s / backoff_multiplier:
        Deterministic exponential backoff between retry rounds: round
        ``r`` (1-based) sleeps ``backoff_s * backoff_multiplier**(r-1)``
        seconds.  No jitter — chaos runs must replay bit-identically.
        The default 0.0 never sleeps, which is what tests want.
    sleep:
        The sleep function backoff uses (injectable so tests can assert
        backoff without waiting).
    """

    max_retries: int = 2
    timeout_s: Optional[float] = None
    backoff_s: float = 0.0
    backoff_multiplier: float = 2.0
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise EvaluationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise EvaluationError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )
        if self.backoff_s < 0 or self.backoff_multiplier <= 0:
            raise EvaluationError(
                "backoff_s must be >= 0 and backoff_multiplier > 0, got "
                f"{self.backoff_s} / {self.backoff_multiplier}"
            )

    def backoff_for(self, round_number: int) -> float:
        """Seconds to back off before retry round ``round_number`` (1-based)."""
        return self.backoff_s * (self.backoff_multiplier ** (round_number - 1))


@dataclass(frozen=True)
class TaskFailure:
    """One failed task attempt, as recorded by :func:`resilient_map`."""

    task_index: int
    attempt: int
    status: str  # "error" | "timeout" | "dropped" | "truncated"
    backend: str
    error: Optional[BaseException] = None
    fault: "object | None" = None  # the FaultSpec that caused it, if injected

    def describe(self) -> str:
        cause = f": {self.error!r}" if self.error is not None else ""
        injected = " [injected]" if self.fault is not None else ""
        return (
            f"task {self.task_index} attempt {self.attempt} "
            f"{self.status} on {self.backend!r}{injected}{cause}"
        )


def degraded_backend(backend: ExecutionBackend) -> Optional[ExecutionBackend]:
    """The next backend down the ladder, or None when already at serial.

    Whatever misbehaved — the process pool or a user-supplied backend —
    the one dependable fallback is the plain in-process loop.
    """
    if isinstance(backend, SerialBackend) or backend.name == "serial":
        return None
    return SerialBackend()


def _shard_error(
    message: str,
    failures: List[TaskFailure],
    plan: "object | None",
) -> ShardExecutionError:
    trace = tuple(getattr(plan, "trace", ())) if plan is not None else ()
    detail = "; ".join(f.describe() for f in failures[-5:])
    if detail:
        message = f"{message} ({detail})"
    return ShardExecutionError(message, failures=failures, faults=trace)


def resilient_map(
    backend: ExecutionBackend,
    fn: Callable[[T], R],
    items: Sequence[T],
    policy: Optional[RetryPolicy] = None,
    plan: "object | None" = None,
    obs: Optional[PipelineStats] = None,
    failure_mode: str = "retry",
) -> List[R]:
    """Map ``fn`` over ``items`` with retries, timeouts and degradation.

    The exact-or-error workhorse: returns one value per item, in item
    order, or raises :class:`~repro.errors.ShardExecutionError` — a
    partial result can never leak out.  ``plan`` is an optional
    :class:`~repro.faults.FaultPlan`; scheduled faults are applied to
    attempt outcomes *in the coordinator* (identical behavior on every
    backend) and recorded on the plan's trace.

    ``failure_mode``:

    * ``"raise"`` — no tolerance: the first failed attempt raises (still
      typed, still carrying the fault trace);
    * ``"retry"`` — each task gets ``policy.max_retries`` extra attempts
      on the configured backend, then the run raises;
    * ``"degrade"`` — like retry, but a task that exhausts its budget
      steps the whole fan-out down :data:`DEGRADATION_ORDER` with a
      fresh budget; only exhaustion *at serial* raises.

    Observability (all on ``obs``): ``fault_injected``, ``task_retries``,
    ``task_timeouts``, ``backend_degradations`` counters and the
    ``retry_backoff`` stage timer.
    """
    if failure_mode not in ("raise", "retry", "degrade"):
        raise EvaluationError(
            f"unknown failure mode {failure_mode!r}; "
            f"expected 'raise', 'retry' or 'degrade'"
        )
    policy = policy if policy is not None else RetryPolicy()
    obs = obs if obs is not None else PipelineStats()
    n = len(items)
    results: dict = {}
    attempts = [0] * n        # global attempt number per task (keys the plan)
    tier_failures = [0] * n   # failures within the current backend tier
    failures: List[TaskFailure] = []
    current = backend
    pending = list(range(n))
    retry_round = 0
    while pending:
        outcomes = current.run_tasks(
            fn, [items[i] for i in pending], timeout=policy.timeout_s
        )
        if len(outcomes) != len(pending):
            # A backend returning the wrong number of outcomes is a
            # broken backend; treat the tail as dropped tasks.
            outcomes = list(outcomes) + [
                ("dropped", None, None, 0.0)
            ] * (len(pending) - len(outcomes))
        retry_next: List[int] = []
        exhausted: List[int] = []
        for i, outcome in zip(pending, outcomes):
            status, value, error, seconds = outcome
            attempt = attempts[i]
            fault = (
                plan.fault_for(i, attempt) if plan is not None else None
            )
            if fault is not None:
                from repro.faults import FaultInjected

                plan.record(fault)
                obs.incr("fault_injected")
                if fault.kind == "raise":
                    status, value, error = (
                        "error",
                        None,
                        FaultInjected(
                            f"injected fault: {fault.describe()}"
                        ),
                    )
                elif fault.kind == "drop":
                    status, value = "dropped", None
                elif fault.kind == "truncate":
                    # The envelope fails its integrity check: a worker
                    # died mid-serialization.  The (corrupt) value must
                    # never reach the merge.
                    status, value = "truncated", None
                elif fault.kind == "latency":
                    seconds += fault.latency_s
            if (
                status == "ok"
                and policy.timeout_s is not None
                and seconds > policy.timeout_s
            ):
                status, value = "timeout", None
            if status == "ok":
                results[i] = value
                continue
            if status == "timeout":
                obs.incr("task_timeouts")
            attempts[i] += 1
            tier_failures[i] += 1
            failures.append(TaskFailure(
                task_index=i,
                attempt=attempt,
                status=status,
                backend=current.name,
                error=error,
                fault=fault,
            ))
            if failure_mode == "raise":
                raise _shard_error(
                    f"shard task {i} failed ({status}) and "
                    f"failure_mode='raise' grants no retries",
                    failures, plan,
                )
            if tier_failures[i] > policy.max_retries:
                exhausted.append(i)
            else:
                retry_next.append(i)
        if exhausted:
            if failure_mode == "degrade":
                degraded = degraded_backend(current)
                if degraded is None:
                    raise _shard_error(
                        f"{len(exhausted)} shard task(s) exhausted "
                        f"{policy.max_retries} retries on the 'serial' "
                        f"backend; nothing left to degrade to",
                        failures, plan,
                    )
                obs.incr("backend_degradations")
                current = degraded
                for i in exhausted:
                    tier_failures[i] = 0
                retry_next.extend(exhausted)
            else:
                raise _shard_error(
                    f"{len(exhausted)} shard task(s) failed past "
                    f"max_retries={policy.max_retries}",
                    failures, plan,
                )
        if retry_next:
            retry_round += 1
            obs.incr("task_retries", len(retry_next))
            delay = policy.backoff_for(retry_round)
            with obs.stage("retry_backoff"):
                if delay > 0:
                    policy.sleep(delay)
        pending = sorted(retry_next)
    if len(results) != n:
        missing = sorted(set(range(n)) - set(results))
        raise _shard_error(
            f"result-completeness check failed: shard task(s) {missing} "
            f"unaccounted for before merge",
            failures, plan,
        )
    return [results[i] for i in range(n)]
