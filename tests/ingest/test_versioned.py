"""Unit tests for the versions a :class:`StreamingIngestor` publishes.

Each flush appends its delta to the head snapshot's table and publishes
the result as the next version.  The load-bearing invariants — pinned
versions never change, and every version's table starts with its
predecessor's rows — are what let the pre-agg maintainer fold forward
instead of rebuilding; they are pinned here at the table level before
the differential campaign exercises them end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import IngestError
from repro.ingest import IngestSnapshot, StreamingIngestor
from repro.mo.moft import MOFT
from repro.synth import figure1_instance

pytestmark = pytest.mark.ingest


def ingestor(base=None) -> StreamingIngestor:
    """A store-less ingestor with zero lateness: each submitted batch
    above the watermark is sealed and published at once."""
    world = figure1_instance()
    return StreamingIngestor(world.gis, world.time, moft_name="FM", base=base)


def publish_rows(writer: StreamingIngestor, rows) -> IngestSnapshot:
    writer.submit(
        [r[0] for r in rows],
        [r[1] for r in rows],
        [r[2] for r in rows],
        [r[3] for r in rows],
    )
    return writer.snapshot()


def columns_of(moft: MOFT):
    t, x, y = moft.as_arrays()
    return list(moft.oid_column()), t, x, y


class TestConstruction:
    def test_empty_chain_head(self):
        head = ingestor().snapshot()
        assert head.ordinal == 0
        assert head.rows == 0
        assert isinstance(head.moft, MOFT)
        assert len(head.moft) == 0
        assert head.moft.name == "FM"

    def test_base_seeds_version_zero(self):
        base = MOFT.from_columns(
            ["a", "b"], [0.0, 1.0], [1.0, 2.0], [3.0, 4.0], name="FM"
        )
        head = ingestor(base).snapshot()
        assert head.ordinal == 0
        assert head.rows == 2
        # The base is version 0's table itself: zero copies.
        assert head.moft is base

    def test_empty_base_is_ignored(self):
        base = MOFT("other")
        head = ingestor(base).snapshot()
        assert head.moft is not base
        assert head.moft.name == "FM"


class TestPublish:
    def test_appends_segment_and_bumps_ordinal(self):
        writer = ingestor()
        snap1 = publish_rows(writer, [("a", 0.0, 1.0, 1.0)])
        snap2 = publish_rows(
            writer, [("a", 1.0, 2.0, 2.0), ("b", 1.0, 0.0, 0.0)]
        )
        assert (snap1.ordinal, snap1.rows) == (1, 1)
        assert (snap2.ordinal, snap2.rows) == (2, 3)
        assert writer.snapshot() is snap2
        assert snap2.moft is not snap1.moft

    def test_a_seal_builds_one_table(self, monkeypatch):
        """A flush appends to the head's table and builds nothing else."""
        writer = ingestor()
        publish_rows(writer, [("a", 0.0, 1.0, 1.0)])
        built = []
        init = MOFT.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(MOFT, "__init__", counting)
        snap = publish_rows(
            writer, [("a", 1.0, 2.0, 2.0), ("b", 1.0, 0.0, 0.0)]
        )
        assert built == [snap.moft]

    def test_pinned_snapshot_is_immutable_across_publishes(self):
        writer = ingestor()
        pinned = publish_rows(writer, [("a", 0.0, 1.0, 1.0)])
        before = columns_of(pinned.moft)
        publish_rows(writer, [("b", 1.0, 5.0, 5.0)])
        publish_rows(writer, [("c", 2.0, 6.0, 6.0)])
        after = columns_of(pinned.moft)
        assert pinned.rows == 1
        assert before[0] == after[0]
        for lhs, rhs in zip(before[1:], after[1:]):
            assert np.array_equal(lhs, rhs)

    def test_row_prefix_extension(self):
        """Every snapshot's table starts with its predecessor's rows."""
        writer = ingestor()
        old = publish_rows(
            writer, [("a", 0.0, 1.0, 1.0), ("b", 0.0, 2.0, 2.0)]
        )
        new = publish_rows(
            writer, [("a", 1.0, 3.0, 3.0), ("c", 1.0, 4.0, 4.0)]
        )
        old_oids, old_t, old_x, old_y = columns_of(old.moft)
        new_oids, new_t, new_x, new_y = columns_of(new.moft)
        r = old.rows
        assert new_oids[:r] == old_oids
        assert np.array_equal(new_t[:r], old_t)
        assert np.array_equal(new_x[:r], old_x)
        assert np.array_equal(new_y[:r], old_y)

    def test_empty_segment_is_refused(self):
        """An empty batch seals nothing, so no version is published."""
        writer = ingestor()
        head = writer.snapshot()
        report = writer.submit([], [], [], [])
        assert (report.ingested, report.ordinal) == (0, 0)
        assert writer.snapshot() is head

    def test_malformed_segment_leaves_head_unchanged(self):
        # The base holds ("a", 5.0) above the empty stream's watermark,
        # so the stream's own ("a", 5.0) passes routing and is sealed
        # into a delta the head's table refuses.
        base = MOFT.from_columns(["a"], [5.0], [1.0], [1.0], name="FM")
        writer = ingestor(base)
        head = writer.snapshot()
        with pytest.raises(IngestError, match="malformed delta segment"):
            publish_rows(writer, [("a", 5.0, 9.0, 9.0)])
        assert writer.snapshot() is head
        assert len(base) == 1

    def test_ragged_segment_is_refused(self):
        writer = ingestor()
        head = writer.snapshot()
        with pytest.raises(IngestError, match="ragged sample batch"):
            writer.submit(["a", "b"], [0.0], [1.0], [1.0])
        assert writer.snapshot() is head


class TestSave:
    def test_snapshot_saves_as_columnar_file(self, tmp_path):
        writer = ingestor()
        publish_rows(writer, [("a", 0.0, 1.0, 1.0), ("b", 0.0, 2.0, 2.0)])
        publish_rows(writer, [("a", 1.0, 1.5, 1.5)])
        snap = writer.snapshot()
        path = tmp_path / "v2.moft"
        nbytes = snap.moft.save(path)
        assert nbytes == path.stat().st_size > 0

        loaded = MOFT.load(path)
        want = columns_of(snap.moft)
        got = columns_of(loaded)
        assert want[0] == got[0]
        for lhs, rhs in zip(want[1:], got[1:]):
            assert np.array_equal(lhs, rhs)

    def test_saved_version_is_pinned_against_later_publishes(self, tmp_path):
        """The file captures exactly the saved version, not the live head."""
        writer = ingestor()
        pinned = publish_rows(writer, [("a", 0.0, 1.0, 1.0)])
        publish_rows(writer, [("b", 1.0, 2.0, 2.0)])
        path = tmp_path / "pinned.moft"
        pinned.moft.save(path)
        loaded = MOFT.load(path)
        assert len(loaded) == 1
        assert list(loaded.oid_column()) == ["a"]
        assert writer.snapshot().rows == 2
