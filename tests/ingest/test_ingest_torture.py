"""Concurrency torture: readers pin snapshots while the writer ingests.

The MVCC claims under real-thread load (the ingest counterpart of
``tests/service/test_service_stress.py``):

* **no torn reads** — every answer a reader computes from a pinned
  snapshot equals the serial recomputation over that snapshot's row
  prefix of the final table (row-prefix extension makes the prefix the
  complete description of a published version);
* **exact accounting** — after the run the observability counters add
  up exactly: ``samples_ingested + samples_late == samples_submitted``,
  the side channel holds precisely ``samples_late`` rows, and the final
  table holds precisely ``samples_ingested`` rows;
* **pinned versions keep answering** — a snapshot pinned mid-stream
  answers identically after the writer has published past it.
"""

from __future__ import annotations

import threading

import pytest

from repro.ingest import IngestConfig, StoreSpec, StreamingIngestor
from repro.gis import POLYGON
from repro.mo.moft import MOFT
from repro.query.evaluator import count_objects_through
from repro.query.region import EvaluationContext

from tests.ingest.conftest import (
    TARGET,
    count_payload,
    moft_samples,
    run_schedule,
    through_payload,
)

pytestmark = pytest.mark.ingest


def build_ingestor(world, *, lateness=5.0):
    return StreamingIngestor(
        world.gis,
        world.time,
        moft_name=world.moft_name,
        config=IngestConfig(allowed_lateness=lateness),
        store_specs=(StoreSpec(world.granule, "Ln", POLYGON),),
    )


def prefix_context(world, final_moft: MOFT, rows: int) -> EvaluationContext:
    """Rebuild the published version with ``rows`` rows from the final
    table (row-prefix extension: every version is a prefix)."""
    if rows == 0:
        return EvaluationContext(world.gis, world.time, MOFT(world.moft_name))
    oids = final_moft.oid_column()
    t, x, y = final_moft.as_arrays()
    prefix = MOFT.from_columns(
        list(oids[:rows]), t[:rows], x[:rows], y[:rows],
        name=world.moft_name, validate=False,
    )
    return EvaluationContext(world.gis, world.time, prefix)


def test_readers_see_only_published_versions(small_synth_stream):
    """N reader threads race a writer; every (rows, answer) pair a
    reader observed must match the serial recomputation of that row
    prefix — i.e. every answer belongs to some published version."""
    world = small_synth_stream
    import random

    schedule = list(world.samples)
    random.Random(99).shuffle(schedule)
    ingestor = build_ingestor(world, lateness=5.0)

    stop = threading.Event()
    observations, errors = [], []
    lock = threading.Lock()

    def reader() -> None:
        try:
            while not stop.is_set():
                snap = ingestor.snapshot()
                context = snap.context()
                count = count_objects_through(
                    context, TARGET, [], moft_name=world.moft_name
                )
                with lock:
                    observations.append((snap.ordinal, snap.rows, count))
        except Exception as exc:  # pragma: no cover - failure detail
            with lock:
                errors.append(exc)

    readers = [threading.Thread(target=reader) for _ in range(4)]
    for thread in readers:
        thread.start()
    try:
        batch = 64
        for start in range(0, len(schedule), batch):
            rows = schedule[start:start + batch]
            ingestor.submit(
                [s[0] for s in rows],
                [s[1] for s in rows],
                [s[2] for s in rows],
                [s[3] for s in rows],
            )
        ingestor.close()
    finally:
        stop.set()
        for thread in readers:
            thread.join()

    assert errors == []
    assert observations, "readers never completed a query"

    final = ingestor.snapshot()
    final_moft = final.moft

    # Every observed answer matches the serial recomputation of its
    # snapshot's row prefix: no reader ever saw torn state.
    expected = {}
    for _, rows, _ in observations:
        if rows not in expected:
            expected[rows] = count_objects_through(
                prefix_context(world, final_moft, rows),
                TARGET,
                [],
                moft_name=world.moft_name,
                use_preagg=False,
            )
    for ordinal, rows, count in observations:
        assert count == expected[rows], (
            f"torn read at ordinal={ordinal}: rows={rows} gave {count}, "
            f"serial prefix gives {expected[rows]}"
        )

    # Exact accounting, not approximate.
    counters = ingestor.obs.counters
    total = len(world.samples)
    assert counters["samples_submitted"] == total
    assert (
        counters["samples_ingested"] + counters["samples_late"] == total
    )
    assert len(ingestor.late_samples()) == counters["samples_late"]
    assert final.rows == counters["samples_ingested"]
    # The final table holds exactly the accepted samples.
    late = {(oid, t) for oid, t, _, _ in ingestor.late_samples()}
    accepted = [
        s for s in world.samples if (s[0], s[1]) not in late
    ]
    assert sorted(moft_samples(final_moft)) == sorted(accepted)


def test_pinned_snapshot_survives_writer_progress(fig1_stream):
    """A pinned version keeps answering identically while the writer
    publishes and closes behind it."""
    world = fig1_stream
    ingestor = build_ingestor(world, lateness=12.0)
    schedule = sorted(world.samples, key=lambda s: (s[1], repr(s[0])))
    half = len(schedule) // 2
    for start in range(0, half, 3):
        rows = schedule[start:start + 3]
        ingestor.submit(
            [s[0] for s in rows],
            [s[1] for s in rows],
            [s[2] for s in rows],
            [s[3] for s in rows],
        )
    pinned = ingestor.snapshot()
    pinned_rows = pinned.rows
    before_count = count_payload(
        pinned.context(), moft_name=world.moft_name
    )
    before_through = through_payload(
        pinned.context(), moft_name=world.moft_name
    )
    for start in range(half, len(schedule), 3):
        rows = schedule[start:start + 3]
        ingestor.submit(
            [s[0] for s in rows],
            [s[1] for s in rows],
            [s[2] for s in rows],
            [s[3] for s in rows],
        )
    ingestor.close()
    assert pinned.rows == pinned_rows
    assert count_payload(
        pinned.context(), moft_name=world.moft_name
    ) == before_count
    assert through_payload(
        pinned.context(), moft_name=world.moft_name
    ) == before_through
    assert ingestor.snapshot().rows > pinned_rows


def test_concurrent_writers_serialize_cleanly(fig1_stream):
    """submit() from many threads: the lock serializes publishes and
    the accounting still adds up exactly."""
    world = fig1_stream
    ingestor = build_ingestor(world, lateness=12.0)
    groups = {}
    for sample in world.samples:
        groups.setdefault(sample[1], []).append(sample)
    batches = [groups[t] for t in sorted(groups)]
    errors = []

    def writer(rows) -> None:
        try:
            ingestor.submit(
                [s[0] for s in rows],
                [s[1] for s in rows],
                [s[2] for s in rows],
                [s[3] for s in rows],
            )
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [
        threading.Thread(target=writer, args=(rows,)) for rows in batches
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    final = ingestor.close()
    assert errors == []
    counters = ingestor.obs.counters
    total = len(world.samples)
    assert counters["samples_submitted"] == total
    assert (
        counters["samples_ingested"] + counters["samples_late"] == total
    )
    assert final.rows == counters["samples_ingested"]
    # Lateness covers the whole span, so arrival order cannot drop rows.
    assert final.rows == total
    assert count_payload(
        final.context(), moft_name=world.moft_name
    ) == count_payload(
        run_schedule(world, batch_size=len(world.samples)).snapshot().context(),
        moft_name=world.moft_name,
    )
