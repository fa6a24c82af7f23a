"""POI aggregate queries: visits, distinct visitors, dwell, top-k.

The follow-up paper's aggregation language asks questions like "how many
distinct objects visited each place of interest per hour?" and "which
are the top-k places by distinct visitors this granule?".  This module
exposes those four aggregates over an
:class:`~repro.query.region.EvaluationContext`, under three execution
strategies pinned byte-identical by the differential campaign:

``serial``
    Segment every trajectory against the POI discs in one segmented
    array scan (docs/poi.md) into a throwaway store's cell table.
``sharded``
    The executor you pass (:class:`~repro.parallel.ShardedExecutor`):
    its object shards of the MOFT, per-shard cell tables built on its
    backend, :meth:`~repro.poi.PoiVisitStore.merge` — concatenate,
    intern again — with completeness checks.  Without an executor there
    is no such strategy.
``preagg``
    Serve from a registered, fresh :class:`~repro.poi.PoiVisitStore`
    (``poi_preagg_hits``); a stale or missing store is a miss.

Every front-end — the route-first functions below, the planner's
:func:`~repro.query.planner.plan_poi_aggregate` and Piet-QL — resolves
the query once (:func:`resolve_poi`) and runs the strategy it picked
through the one :func:`execute_poi`.  Every route ends in the same reads
off a :class:`~repro.poi.store.CellTable`; the answers are plain dicts
whose sums and visitor tuples follow the table's order (objects and POI
ids by ``repr``), ready for canonical-JSON comparison.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.errors import EvaluationError
from repro.gis import geometries as gk
from repro.mo.moft import MOFT
from repro.poi.store import PoiVisitStore
from repro.query.region import EvaluationContext

if TYPE_CHECKING:
    from repro.parallel.executor import ShardedExecutor

#: Execution strategies for POI aggregates.
POI_STRATEGIES = ("serial", "sharded", "preagg")

#: Supported aggregate measures.
POI_MEASURES = ("visits", "visitors", "dwell", "topk")


class PoiOperands(NamedTuple):
    """The resolved operands of one POI aggregate (:func:`resolve_poi`
    builds them; every front-end executes from them): the query, the
    table, the layer's POI discs and the registered store that covers the
    query — None unless it is fresh.  ``store_missed``: stores are
    registered and none of them serves."""

    context: EvaluationContext
    layer: str
    granule_level: str
    min_dwell: float
    measure: str
    k: Optional[int]
    moft: MOFT
    pois: Mapping[Hashable, object]
    store: Optional[PoiVisitStore]
    store_missed: bool


def no_executor_error() -> EvaluationError:
    """What the ``sharded`` strategy is without an executor to run it."""
    return EvaluationError(
        "the sharded POI strategy runs on a ShardedExecutor and no "
        "executor was passed"
    )


def resolve_poi(
    context: EvaluationContext,
    layer: str,
    granule_level: str,
    min_dwell: float = 0.0,
    moft_name: str = "FM",
    measure: str = "visits",
    k: Optional[int] = None,
    strategy: Optional[str] = None,
) -> PoiOperands:
    """Resolve a POI aggregate to its operands, once.

    The only code that matches a POI store to a query: the registered
    store over exactly this table, layer, granule level and
    ``min_dwell``, kept when fresh.  Before anything is priced or
    scanned it refuses, with an :class:`EvaluationError`, an unknown
    ``strategy`` or ``measure``, top-k without ``k``, a layer without
    POI discs and ``preagg`` with no store to serve it.  It touches no
    routing counter: those move when the query executes.
    """
    if strategy is not None and strategy not in POI_STRATEGIES:
        raise EvaluationError(
            f"unknown POI strategy {strategy!r}; expected one of "
            f"{POI_STRATEGIES}"
        )
    if measure not in POI_MEASURES:
        raise EvaluationError(f"unknown POI measure {measure!r}")
    if measure == "topk" and k is None:
        raise EvaluationError("top-k POI aggregate needs k")
    pois = dict(context.gis.layer(layer).elements(gk.POI))
    if not pois:
        raise EvaluationError(
            f"layer {layer!r} holds no {gk.POI!r} geometries; "
            "POI aggregates need a POI layer"
        )
    moft = context.moft(moft_name)
    store = context.poi_store_for(moft, layer, granule_level, min_dwell, pois)
    if store is not None and store.is_stale():
        store = None
    if strategy == "preagg" and store is None:
        raise EvaluationError(
            "no fresh PoiVisitStore registered for "
            f"(layer={layer!r}, granule={granule_level!r}, "
            f"min_dwell={min_dwell!r})"
        )
    return PoiOperands(
        context, layer, granule_level, min_dwell, measure, k, moft, pois,
        store, store is None and context.has_preagg,
    )


def execute_poi(
    ops: PoiOperands,
    strategy: str,
    executor: Optional[ShardedExecutor] = None,
) -> PoiVisitStore:
    """Execute resolved operands under ``strategy``; return the store the
    measures are read off.

    The only code that reads or builds a POI store: ``preagg`` reads the
    resolved store — refusing one that went stale since, and counting
    ``poi_preagg_hits`` — ``serial`` segments the whole table in one
    pass, and ``sharded`` builds on ``executor`` (one pass per object
    shard on its backend, merged with completeness checks).
    """
    context = ops.context
    if strategy == "preagg":
        if ops.store.is_stale():
            raise EvaluationError(
                f"the PoiVisitStore planned for (layer={ops.layer!r}, "
                f"granule={ops.granule_level!r}) went stale after "
                f"planning; plan again"
            )
        context.obs.incr("poi_preagg_hits")
        return ops.store
    args = (ops.moft, context.time, ops.granule_level, ops.pois)
    options = dict(layer=ops.layer, min_dwell=ops.min_dwell, obs=context.obs)
    if strategy == "serial":
        return PoiVisitStore(*args, **options)
    if executor is None:
        raise no_executor_error()
    return executor.build_store(PoiVisitStore, *args, **options)


def poi_store_view(
    context: EvaluationContext,
    layer: str,
    granule_level: str,
    *,
    min_dwell: float = 0.0,
    moft_name: str = "FM",
    strategy: Optional[str] = None,
    executor: Optional[ShardedExecutor] = None,
) -> Tuple[PoiVisitStore, str]:
    """Resolve a readable cell store for one POI aggregate.

    Returns ``(store, strategy_used)``.  ``strategy=None`` is
    route-first: the registered fresh store when one covers the query,
    else the serial scan (a registered store that could not serve counts
    a ``poi_preagg_misses``).  Naming a strategy is strict (``preagg``
    without a usable store raises, and so does ``sharded`` without an
    ``executor`` — which only ``sharded`` uses).
    """
    ops = resolve_poi(
        context, layer, granule_level, min_dwell, moft_name,
        strategy=strategy,
    )
    if strategy is None:
        strategy = "preagg" if ops.store is not None else "serial"
        if ops.store_missed:
            context.obs.incr("poi_preagg_misses")
    return execute_poi(ops, strategy, executor), strategy


def poi_visit_counts(
    context: EvaluationContext,
    layer: str,
    granule_level: str,
    **options,
) -> Dict[Tuple[Hashable, Hashable], int]:
    """``{(poi id, granule member): visit count}``."""
    store, _ = poi_store_view(context, layer, granule_level, **options)
    return store.visit_counts()


def poi_distinct_visitors(
    context: EvaluationContext,
    layer: str,
    granule_level: str,
    **options,
) -> Dict[Tuple[Hashable, Hashable], Tuple[Hashable, ...]]:
    """``{(poi id, granule member): sorted distinct visitor ids}``."""
    store, _ = poi_store_view(context, layer, granule_level, **options)
    return store.distinct_visitors()


def poi_dwell_times(
    context: EvaluationContext,
    layer: str,
    granule_level: str,
    **options,
) -> Dict[Tuple[Hashable, Hashable], float]:
    """``{(poi id, granule member): clipped dwell}`` (canonical fold order)."""
    store, _ = poi_store_view(context, layer, granule_level, **options)
    return store.dwell_times()


def poi_topk(
    context: EvaluationContext,
    layer: str,
    granule_level: str,
    k: int,
    **options,
) -> Dict[Hashable, Tuple[Tuple[Hashable, int], ...]]:
    """Top-``k`` POIs by distinct visitors per granule member."""
    store, _ = poi_store_view(context, layer, granule_level, **options)
    return store.topk(k)
