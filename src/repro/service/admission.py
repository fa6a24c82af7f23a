"""Admission control: bounded queues, typed rejections.

A service that accepts every submission melts under sustained overload;
admission control bounces work *before* it consumes queue space.  Two
caps, both checked at submit time:

* **queue depth** — the queue may hold at most ``max_queue_depth``
  queued jobs; past that, submissions raise
  :class:`~repro.errors.QueueFullError` (global backpressure);
* **per-client in-flight** — one client may have at most
  ``max_in_flight_per_client`` jobs in a non-terminal state; past that,
  :class:`~repro.errors.ClientThrottledError` (fairness: one greedy
  client cannot starve the rest).

Rejections are typed (both derive from
:class:`~repro.errors.AdmissionError`) and counted on the observer
(``jobs_rejected``), and the CLI maps them to exit status 2.  The
depth check is advisory under cross-process races (two submitters can
both pass at depth cap−1); :class:`~repro.service.service.QueryService`
closes the in-process race by admitting and enqueuing under one lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ClientThrottledError, QueueFullError, ServiceError
from repro.obs import PipelineStats
from repro.service.queue import SQLiteJobQueue


@dataclass(frozen=True)
class AdmissionPolicy:
    """The two caps an :class:`AdmissionController` enforces."""

    max_queue_depth: int = 1024
    max_in_flight_per_client: int = 64

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ServiceError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.max_in_flight_per_client < 1:
            raise ServiceError(
                f"max_in_flight_per_client must be >= 1, got "
                f"{self.max_in_flight_per_client}"
            )


class AdmissionController:
    """Checks a submission against the policy before it is enqueued."""

    def __init__(
        self,
        policy: Optional[AdmissionPolicy] = None,
        obs: Optional[PipelineStats] = None,
    ) -> None:
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.obs = obs if obs is not None else PipelineStats()

    def admit(self, queue: SQLiteJobQueue, client_id: str) -> None:
        """Raise a typed :class:`AdmissionError` if either cap is hit."""
        depth = queue.depth()
        if depth >= self.policy.max_queue_depth:
            self.obs.incr("jobs_rejected")
            raise QueueFullError(
                f"queue is full ({depth} queued >= cap "
                f"{self.policy.max_queue_depth}); retry later"
            )
        in_flight = queue.in_flight(client_id)
        if in_flight >= self.policy.max_in_flight_per_client:
            self.obs.incr("jobs_rejected")
            raise ClientThrottledError(
                f"client {client_id!r} has {in_flight} jobs in flight "
                f">= cap {self.policy.max_in_flight_per_client}; "
                f"wait for results before submitting more"
            )


__all__ = ["AdmissionController", "AdmissionPolicy"]
