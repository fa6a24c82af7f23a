"""What the SQLite queue costs per transition, and what it promises.

* the file is in WAL mode with ``synchronous=FULL`` — the durability of
  every committed transition is the rollback journal's;
* each transition is one transaction: ``enqueue`` takes its seq and
  inserts its row under a single ``COMMIT``;
* the counts behind admission and the gauges read only the active
  states: with 5 000 ``done`` rows behind them they still equal
  :meth:`~repro.service.queue.SQLiteJobQueue.counts`, and every statement
  behind them searches the ``jobs_state_seq`` index instead of scanning
  ``jobs``.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.service import SQLiteJobQueue

from tests.service.conftest import FIG1_SPEC

pytestmark = pytest.mark.service

HISTORY = 5_000


def traced(queue: SQLiteJobQueue, call) -> list:
    """The SQL statements ``call()`` runs on the queue's connection."""
    statements: list = []
    queue._conn.set_trace_callback(statements.append)
    try:
        call()
    finally:
        queue._conn.set_trace_callback(None)
    return statements


def test_fresh_queue_is_wal_with_full_sync(tmp_path):
    queue = SQLiteJobQueue(str(tmp_path / "jobs.db"))
    try:
        assert queue._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert queue._conn.execute("PRAGMA synchronous").fetchone()[0] == 2
    finally:
        queue.close()


def test_enqueue_is_one_transaction(tmp_path):
    queue = SQLiteJobQueue(str(tmp_path / "jobs.db"))
    try:
        statements = traced(queue, lambda: queue.enqueue(FIG1_SPEC))
        assert [s for s in statements if s.startswith("COMMIT")] == ["COMMIT"]
        assert queue.get("J000001").state == "queued"
    finally:
        queue.close()


def test_counts_read_only_active_jobs(tmp_path, obs):
    path = str(tmp_path / "jobs.db")
    queue = SQLiteJobQueue(path, obs=obs)
    try:
        # A long finished history, written behind the queue's back.
        history = sqlite3.connect(path)
        with history:
            history.executemany(
                "INSERT INTO jobs (job_id, seq, client_id, spec_json, "
                "state, attempts, max_retries, submitted_at) "
                "VALUES (?, ?, 'alice', '{}', 'done', 1, 2, 0.0)",
                [(f"H{i:06d}", -i) for i in range(1, HISTORY + 1)],
            )
        history.close()
        for client in ("alice", "alice", "alice", "bob"):
            queue.enqueue(FIG1_SPEC, client_id=client)
        first = queue.claim("w0")
        queue.start(first.job_id, "w0")
        queue.claim("w1")

        counts = queue.counts()
        assert counts["done"] == HISTORY
        assert (counts["queued"], counts["claimed"], counts["running"]) == (
            2, 1, 1,
        )
        assert queue.depth() == counts["queued"]
        assert queue.active() == 4
        assert queue.in_flight("alice") == 3
        assert queue.in_flight("bob") == 1
        assert obs.counters["queue_depth"] == counts["queued"]
        assert obs.counters["jobs_in_flight"] == queue.active()

        statements = traced(
            queue,
            lambda: (
                queue.depth(),
                queue.in_flight("alice"),
                queue.active(),
                queue._refresh_gauges(),
            ),
        )
        assert len(statements) == 4
        for statement in statements:
            plan = " | ".join(
                row[3]
                for row in queue._conn.execute(
                    f"EXPLAIN QUERY PLAN {statement}"
                )
            )
            assert "SCAN jobs" not in plan, statement
            assert plan.startswith("SEARCH jobs USING"), plan
            assert "INDEX jobs_state_seq" in plan, plan
    finally:
        queue.close()
