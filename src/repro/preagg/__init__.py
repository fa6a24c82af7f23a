"""Materialized pre-aggregation for moving-object queries.

See :mod:`repro.preagg.store` for the model: per-(geometry, granule)
cells with exact distinct-object sets, boundary-spanning segment
records, incremental maintenance against the append-only MOFT, and
lattice rollup / cube exposure.  The resolve step of the query layer
(:func:`repro.query.evaluator.resolve_through`) matches eligible
aggregates to a registered store.
"""

from repro.preagg.store import (
    OID_DTYPE,
    PreAggCell,
    PreAggStore,
    PreAggStoreStats,
)

__all__ = [
    "OID_DTYPE",
    "PreAggCell",
    "PreAggStore",
    "PreAggStoreStats",
]
