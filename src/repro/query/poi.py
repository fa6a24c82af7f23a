"""POI aggregate queries: visits, distinct visitors, dwell, top-k.

The follow-up paper's aggregation language asks questions like "how many
distinct objects visited each place of interest per hour?" and "which
are the top-k places by distinct visitors this granule?".  It treats
stops at places of interest as aggregates over the same MOFT, with the
POIs as the geometric side — so here each measure is one more kind of
:class:`~repro.query.evaluator.Leaf` (``poi_visits``, ``poi_visitors``,
``poi_dwell``, ``poi_topk``) on the one resolve → plan → execute path,
under three strategies pinned byte-identical by the differential
campaign:

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

:func:`resolve_poi` resolves the query once per state of what it
reads; the functions below take the strategy named, else the planner's
priced one (:func:`repro.query.planner.plan`), and run it through the
one :func:`~repro.query.evaluator.execute`.  Every route ends in the same
reads off a :class:`~repro.poi.store.CellTable`; the answers are plain
dicts whose sums and visitor tuples follow the table's order (objects
and POI ids by ``repr``), ready for canonical-JSON comparison.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Optional, Tuple

from repro.errors import EvaluationError
from repro.gis import geometries as gk
from repro.poi.store import PoiVisitStore
from repro.query.evaluator import KINDS, Leaf, Run, execute, match_store
from repro.query.region import EvaluationContext

if TYPE_CHECKING:
    from repro.parallel.executor import ShardedExecutor

def resolve_poi(
    context: EvaluationContext,
    layer: str,
    granule_level: str,
    min_dwell: float = 0.0,
    moft_name: str = "FM",
    measure: str = "visits",
    k: Optional[int] = None,
) -> Leaf:
    """Resolve a POI aggregate to its leaf (kind ``poi_<measure>``), once
    per state of what it reads (the context keeps it under the spec:
    :meth:`~repro.query.region.EvaluationContext.prepared`).

    The store match is the registered store over exactly this table,
    layer, granule level and ``min_dwell``, kept when fresh
    (:func:`~repro.query.evaluator.match_store`).  Before anything is
    priced or scanned it refuses, with an :class:`EvaluationError`, an
    unknown ``measure``, top-k without ``k`` and a layer without POI
    discs; a strategy is refused where every kind's is, at planning or
    execution.  It touches no routing counter: those move when the
    query executes.
    """
    if f"poi_{measure}" not in KINDS:
        raise EvaluationError(f"unknown POI measure {measure!r}")
    if measure == "topk" and k is None:
        raise EvaluationError("top-k POI aggregate needs k")
    moft = context.moft(moft_name)

    def resolve() -> Leaf:
        pois = dict(context.gis.layer(layer).elements(gk.POI))
        if not pois:
            raise EvaluationError(
                f"layer {layer!r} holds no {gk.POI!r} geometries; "
                "POI aggregates need a POI layer"
            )
        leaf = Leaf(
            f"poi_{measure}", context, moft, moft.version, layer=layer,
            pois=pois, granule_level=granule_level, min_dwell=min_dwell,
            k=k,
        )
        return match_store(
            leaf,
            context.poi_store_for(
                moft, layer, granule_level, min_dwell, pois
            ),
        )

    return context.prepared(
        ("poi", layer, granule_level, min_dwell, moft_name, measure, k),
        moft, resolve,
    )


def _run(
    context: EvaluationContext,
    layer: str,
    granule_level: str,
    measure: str,
    k: Optional[int] = None,
    *,
    min_dwell: float = 0.0,
    moft_name: str = "FM",
    strategy: Optional[str] = None,
    executor: Optional[ShardedExecutor] = None,
) -> Run:
    """Resolve, take ``strategy`` (None: the planner's, priced without
    a fan-out), execute."""
    from repro.query.planner import plan

    leaf = resolve_poi(
        context, layer, granule_level, min_dwell, moft_name, measure, k
    )
    return execute(leaf, strategy or plan(leaf).strategy, executor)


def poi_store_view(
    context: EvaluationContext,
    layer: str,
    granule_level: str,
    **options,
) -> Tuple[PoiVisitStore, str]:
    """Resolve a readable cell store for one POI aggregate.

    Returns ``(store, strategy_used)``.  ``strategy=None`` takes the
    planner's priced choice among the serial scan and, when a registered
    fresh store covers the query, its cell read (a registered store that
    could not serve counts a ``poi_preagg_misses``).  Naming a strategy
    is strict (``preagg`` without a usable store raises, and so does
    ``sharded`` without an ``executor`` — which only ``sharded`` uses).  Options: ``min_dwell``,
    ``moft_name``, ``strategy``, ``executor``.
    """
    run = _run(context, layer, granule_level, "visits", **options)
    return run.store, run.strategy


def poi_visit_counts(
    context: EvaluationContext,
    layer: str,
    granule_level: str,
    **options,
) -> Dict[Tuple[Hashable, Hashable], int]:
    """``{(poi id, granule member): visit count}``."""
    return _run(
        context, layer, granule_level, "visits", **options
    ).answer


def poi_distinct_visitors(
    context: EvaluationContext,
    layer: str,
    granule_level: str,
    **options,
) -> Dict[Tuple[Hashable, Hashable], Tuple[Hashable, ...]]:
    """``{(poi id, granule member): sorted distinct visitor ids}``."""
    return _run(
        context, layer, granule_level, "visitors", **options
    ).answer


def poi_dwell_times(
    context: EvaluationContext,
    layer: str,
    granule_level: str,
    **options,
) -> Dict[Tuple[Hashable, Hashable], float]:
    """``{(poi id, granule member): clipped dwell}`` (canonical fold order)."""
    return _run(
        context, layer, granule_level, "dwell", **options
    ).answer


def poi_topk(
    context: EvaluationContext,
    layer: str,
    granule_level: str,
    k: int,
    **options,
) -> Dict[Hashable, Tuple[Tuple[Hashable, int], ...]]:
    """Top-``k`` POIs by distinct visitors per granule member."""
    return _run(
        context, layer, granule_level, "topk", k, **options
    ).answer
