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

Every route ends in the same reads off a :class:`~repro.poi.store
.CellTable`; the answers are plain dicts whose sums and visitor tuples
follow the table's order (objects and POI ids by ``repr``), ready for
canonical-JSON comparison.
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


def resolve_pois(
    context: EvaluationContext, layer: str
) -> Dict[Hashable, object]:
    """The POI discs of one layer; typed error when the layer has none."""
    pois = dict(context.gis.layer(layer).elements(gk.POI))
    if not pois:
        raise EvaluationError(
            f"layer {layer!r} holds no {gk.POI!r} geometries; "
            "POI aggregates need a POI layer"
        )
    return pois


class PoiOperands(NamedTuple):
    """What a planned POI aggregate runs on, resolved once at planning:
    the table, the layer's POI discs and the registered fresh store that
    covers the query (None: there is none)."""

    moft: MOFT
    pois: Mapping[Hashable, object]
    store: Optional[PoiVisitStore]


def no_executor_error() -> EvaluationError:
    """What the ``sharded`` strategy is without an executor to run it."""
    return EvaluationError(
        "the sharded POI strategy runs on a ShardedExecutor and no "
        "executor was passed"
    )


def build_store(
    context: EvaluationContext,
    moft: MOFT,
    pois: Mapping[Hashable, object],
    layer: str,
    granule_level: str,
    min_dwell: float,
    executor: Optional[ShardedExecutor] = None,
) -> PoiVisitStore:
    """Segment the table into a throwaway cell store: one pass over the
    whole table, or ``executor``'s sharded build (one pass per object
    shard on its backend, merged with completeness checks)."""
    options = dict(layer=layer, min_dwell=min_dwell, obs=context.obs)
    if executor is None:
        return PoiVisitStore(
            moft, context.time, granule_level, pois, **options
        )
    return executor.build_store(
        PoiVisitStore, moft, context.time, granule_level, pois, **options
    )


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

    Returns ``(store, strategy_used)``.  ``strategy=None`` routes
    through a registered fresh pre-agg store when one covers the query
    and falls back to the serial scan otherwise; naming a strategy is
    strict (``preagg`` without a usable store raises, and so does
    ``sharded`` without an ``executor`` — which only ``sharded`` uses).
    """
    if strategy is not None and strategy not in POI_STRATEGIES:
        raise EvaluationError(
            f"unknown POI strategy {strategy!r}; expected one of "
            f"{POI_STRATEGIES}"
        )
    if strategy == "sharded" and executor is None:
        raise no_executor_error()
    pois = resolve_pois(context, layer)
    moft = context.moft(moft_name)
    if strategy in (None, "preagg"):
        store = context.poi_store_for(
            moft, layer, granule_level, min_dwell, pois
        )
        if store is not None and not store.is_stale():
            context.obs.incr("poi_preagg_hits")
            return store, "preagg"
        if strategy == "preagg":
            raise EvaluationError(
                "no fresh PoiVisitStore registered for "
                f"(layer={layer!r}, granule={granule_level!r}, "
                f"min_dwell={min_dwell!r})"
            )
        if context.has_preagg:
            context.obs.incr("poi_preagg_misses")
    if strategy == "sharded":
        built = build_store(
            context, moft, pois, layer, granule_level, min_dwell,
            executor=executor,
        )
        return built, "sharded"
    built = build_store(context, moft, pois, layer, granule_level, min_dwell)
    return built, "serial"


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


class PoiQueryBuilder:
    """Fluent spec for one POI aggregate.

    >>> (PoiQueryBuilder("Lp").per("hour").with_min_dwell(0.5)
    ...     .sharded(executor).top_k(context, 3))

    Terminal methods (``visits`` / ``distinct_visitors`` / ``dwell`` /
    ``top_k``) take the evaluation context and execute immediately;
    :meth:`explain` prices the strategies through the planner without
    executing.
    """

    def __init__(self, layer: str, moft_name: str = "FM") -> None:
        self._layer = layer
        self._moft_name = moft_name
        self._granule: Optional[str] = None
        self._min_dwell = 0.0
        self._strategy: Optional[str] = None
        self._executor: Optional[ShardedExecutor] = None

    def per(self, granule_level: str) -> "PoiQueryBuilder":
        self._granule = granule_level
        return self

    def from_moft(self, name: str) -> "PoiQueryBuilder":
        self._moft_name = name
        return self

    def with_min_dwell(self, min_dwell: float) -> "PoiQueryBuilder":
        self._min_dwell = float(min_dwell)
        return self

    def serial(self) -> "PoiQueryBuilder":
        self._strategy = "serial"
        return self

    def sharded(self, executor: ShardedExecutor) -> "PoiQueryBuilder":
        """Build on ``executor``: its backend, its shard count."""
        self._strategy = "sharded"
        self._executor = executor
        return self

    def preagg(self) -> "PoiQueryBuilder":
        self._strategy = "preagg"
        return self

    def _options(self) -> Dict[str, object]:
        if self._granule is None:
            raise EvaluationError(
                "POI query needs a granule level; call .per(level)"
            )
        return {
            "min_dwell": self._min_dwell,
            "moft_name": self._moft_name,
            "strategy": self._strategy,
            "executor": self._executor,
        }

    def visits(self, context: EvaluationContext):
        return poi_visit_counts(
            context, self._layer, self._granule, **self._options()
        )

    def distinct_visitors(self, context: EvaluationContext):
        return poi_distinct_visitors(
            context, self._layer, self._granule, **self._options()
        )

    def dwell(self, context: EvaluationContext):
        return poi_dwell_times(
            context, self._layer, self._granule, **self._options()
        )

    def top_k(self, context: EvaluationContext, k: int):
        return poi_topk(
            context, self._layer, self._granule, k, **self._options()
        )

    def explain(self, context: EvaluationContext, measure: str = "visits"):
        from repro.query.planner import plan_poi_aggregate

        options = self._options()
        return plan_poi_aggregate(
            context,
            self._layer,
            self._granule,
            measure=measure,
            force_strategy=options.pop("strategy"),
            **options,
        )
