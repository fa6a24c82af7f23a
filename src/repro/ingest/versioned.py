"""Immutable-snapshot MVCC version chain over the columnar MOFT.

The MOFT is append-only, but *in-place* appends are invisible to
concurrent readers only if they tolerate torn state: a reader iterating
``as_arrays()`` while a writer extends the columns may see a row count
from before the append and cached arrays from after it.  The streaming
writer therefore never mutates a published table.  Instead it keeps a
**version chain** of immutable snapshots:

* a :class:`MoftSnapshot` is one published version — an ordered tuple of
  frozen *segments* (the base table plus one delta segment per flush)
  and the table they make (:meth:`MoftSnapshot.table`);
* :class:`VersionedMoft` owns the chain head.  Publishing appends a new
  segment and swaps the head reference atomically under the writer
  lock; readers pin a snapshot by simply holding the reference — there
  is nothing to unpin, the garbage collector retires old versions when
  the last reader drops them.

Three invariants make the chain cheap to maintain downstream:

**Row-prefix extension.**  Segment order is publication order, so every
snapshot's table starts with the previous snapshot's rows, in the same
positions.  The pre-agg maintainer exploits this: a store built against
version *k* can be cloned, repointed at version *k+1*'s table, and
folded forward with :meth:`~repro.preagg.PreAggStore.update` — the
appended rows are exactly ``rows[built:]``.

**One object order.**  A snapshot's table is its parent's extended by
the delta (:meth:`~repro.mo.moft.MOFT.appended`, the append path of
every table): the delta's ids are interned after the parent's, in the
order the published rows first bring them, and its ``(code, t)`` sort
is merged into the parent's segment index
(:meth:`~repro.mo.moft.SegmentIndex.extend`) and checked for
``(oid, t)`` twins there.  So no scan and no store fold of a snapshot
sorts the rows before it: the work of a publish grows with the delta,
plus the column copies of the new table.

**Compaction preserves the row sequence.**  :meth:`VersionedMoft
.compact` replaces many segments by their one table, index included.
The resulting snapshot is row-for-row identical to its predecessor
(same ``rows``, same order, new ``ordinal``), so compaction can never
change a query answer — the differential campaign in ``tests/ingest``
pins this.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Tuple

from repro.errors import IngestError, TrajectoryError
from repro.mo.moft import MOFT


class MoftSnapshot:
    """One immutable published version of the versioned table.

    Attributes
    ----------
    ordinal:
        Publication sequence number, unique per chain and monotone over
        *every* publish (appends and compactions alike) — the version
        identity concurrency tests match answers against.
    rows:
        Total row count across segments.
    segments:
        The frozen MOFT segments, in publication order.  Never mutate
        them — every downstream guarantee rests on their immutability.
    """

    __slots__ = ("name", "ordinal", "rows", "segments", "_table")

    def __init__(
        self, name: str, ordinal: int, segments: Sequence[MOFT], table: MOFT
    ) -> None:
        self.name = name
        self.ordinal = int(ordinal)
        self.segments: Tuple[MOFT, ...] = tuple(segments)
        self.rows = len(table)
        self._table = table

    def table(self) -> MOFT:
        """The snapshot's table: its segments' rows in publication order,
        with the segment index the chain merged for it.  A fresh base
        is its own table.  The result must be treated as immutable."""
        return self._table

    def save(self, path, include_index: bool = True) -> int:
        """Persist this version as one columnar file; returns the bytes.

        The snapshot is immutable, so the file is a faithful, replayable
        capture of exactly this version — ``MOFT.load`` brings it back
        query-ready (mmap, segment index installed) regardless of how
        many delta segments the live chain had.
        """
        return self._table.save(path, include_index=include_index)

    def __repr__(self) -> str:
        return (
            f"MoftSnapshot({self.name!r}, ordinal={self.ordinal}, "
            f"rows={self.rows}, segments={len(self.segments)})"
        )


def _malformed(detail: str) -> IngestError:
    return IngestError(f"malformed delta segment: {detail}")


class VersionedMoft:
    """Writer-owned head of a :class:`MoftSnapshot` chain.

    One writer at a time publishes (the internal lock serializes
    concurrent publishers); any number of readers call :meth:`head` and
    keep using the returned snapshot for as long as they like.
    """

    def __init__(self, name: str = "FM", base: Optional[MOFT] = None) -> None:
        self.name = name
        self._lock = threading.Lock()
        if base is not None and len(base):
            segments: Tuple[MOFT, ...] = (base,)
            table = base
        else:
            segments, table = (), MOFT(name)
        self._head = MoftSnapshot(name, 0, segments, table)

    @property
    def head(self) -> MoftSnapshot:
        """The current snapshot (atomic read; hold it to pin the version)."""
        return self._head

    def publish(
        self, oids: Sequence, ts: Sequence, xs: Sequence, ys: Sequence
    ) -> MoftSnapshot:
        """Append one delta segment and publish the successor snapshot.

        The segment is validated as every append is (equal column
        lengths, finite numbers, hashable ids, no ``(oid, t)`` twice in
        the new table): the new table is the parent's
        :meth:`~repro.mo.moft.MOFT.appended` by it, which extends the
        parent's segment index by the delta's.  Raises
        :class:`~repro.errors.IngestError` on an empty or malformed
        segment, leaving the head as it was.
        """
        if not len(ts):
            raise IngestError("refusing to publish an empty delta segment")
        with self._lock:
            head = self._head
            try:
                table = head.table().appended(oids, ts, xs, ys)
            except (TrajectoryError, TypeError, ValueError) as exc:
                raise _malformed(str(exc)) from exc
            table.name = self.name
            segment = MOFT.from_columns(
                oids, ts, xs, ys, name=self.name, validate=False
            )
            self._head = MoftSnapshot(
                self.name, head.ordinal + 1, head.segments + (segment,), table
            )
            return self._head

    def compact(self) -> MoftSnapshot:
        """Collapse the head's segments into its one table.

        Publishes a snapshot that is row-for-row identical to the
        current head — the same table, index and codes included — but
        holds a single segment.  A no-op (returning the unchanged head)
        when the head already has at most one segment.
        """
        with self._lock:
            head = self._head
            if len(head.segments) <= 1:
                return head
            table = head.table()
            self._head = MoftSnapshot(
                self.name, head.ordinal + 1, (table,), table
            )
            return self._head

    def __repr__(self) -> str:
        head = self._head
        return (
            f"VersionedMoft({self.name!r}, ordinal={head.ordinal}, "
            f"rows={head.rows}, segments={len(head.segments)})"
        )


__all__ = ["MoftSnapshot", "VersionedMoft"]
