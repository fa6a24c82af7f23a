"""Streaming ingestion: watermarked writes published as immutable snapshots.

See ``docs/ingest.md`` for the full semantics.  The public surface:

* :class:`StreamingIngestor` — the watermark-driven writer, with
  :class:`IngestConfig` (allowed lateness), :class:`StoreSpec` (which
  pre-agg stores to maintain) and :class:`IngestSnapshot` (what readers
  pin: one version of the table with its folded stores);
* :class:`IngestReport` — the per-batch accounting ``submit`` returns.
"""

from repro.ingest.ingestor import (
    IngestConfig,
    IngestReport,
    IngestSnapshot,
    StoreSpec,
    StreamingIngestor,
)

__all__ = [
    "IngestConfig",
    "IngestReport",
    "IngestSnapshot",
    "StoreSpec",
    "StreamingIngestor",
]
