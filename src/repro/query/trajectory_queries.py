"""Trajectory-level queries — Types 7 and 8 of the taxonomy.

Type-7 queries need the reconstructed trajectory (example query 5: "total
amount of time spent continuously by cars in Antwerp"); Type-8 queries
aggregate over trajectory-derived measures.  These helpers compute
per-object trajectory measures against α-identified geometries and fold
them with the Definition 7 functions.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.errors import EvaluationError
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.mo.operations import (
    intervals_inside,
    passes_through,
    time_inside,
    time_within_distance,
)
from repro.olap.aggregation import AggregateFunction
from repro.query.region import EvaluationContext


def _member_polygon(
    context: EvaluationContext, attribute: str, member: Hashable
) -> Polygon:
    placement = context.gis.schema.placement(attribute)
    gid = context.gis.alpha(attribute, member)
    geometry = context.gis.layer(placement.layer).element(placement.kind, gid)
    if not isinstance(geometry, Polygon):
        raise EvaluationError(
            f"{attribute} member {member!r} is not polygon-placed"
        )
    return geometry


def _member_node(
    context: EvaluationContext, attribute: str, member: Hashable
) -> Point:
    placement = context.gis.schema.placement(attribute)
    gid = context.gis.alpha(attribute, member)
    geometry = context.gis.layer(placement.layer).element(placement.kind, gid)
    if not isinstance(geometry, Point):
        raise EvaluationError(
            f"{attribute} member {member!r} is not node-placed"
        )
    return geometry


def time_spent_in(
    context: EvaluationContext,
    attribute: str,
    member: Hashable,
    moft_name: str = "FM",
) -> Dict[Hashable, float]:
    """Per-object time spent inside a polygon member (query 5).

    Uses the linear-interpolation trajectory; single-sample objects
    contribute zero duration.
    """
    polygon = _member_polygon(context, attribute, member)
    moft = context.moft(moft_name)
    result: Dict[Hashable, float] = {}
    for oid in sorted(moft.objects(), key=repr):
        if moft.sample_count(oid) < 2:
            result[oid] = 0.0
            continue
        result[oid] = time_inside(context.trajectory(moft_name, oid), polygon)
    return result


def presence_intervals(
    context: EvaluationContext,
    attribute: str,
    member: Hashable,
    moft_name: str = "FM",
) -> Dict[Hashable, List[Tuple[float, float]]]:
    """Per-object maximal time intervals inside a polygon member."""
    polygon = _member_polygon(context, attribute, member)
    moft = context.moft(moft_name)
    result: Dict[Hashable, List[Tuple[float, float]]] = {}
    for oid in sorted(moft.objects(), key=repr):
        if moft.sample_count(oid) < 2:
            result[oid] = []
            continue
        result[oid] = intervals_inside(
            context.trajectory(moft_name, oid), polygon
        )
    return result


def objects_passing_through(
    context: EvaluationContext,
    attribute: str,
    member: Hashable,
    moft_name: str = "FM",
) -> set:
    """Objects whose interpolated trajectory touches a polygon member.

    The trajectory-semantics version of the paper's query 7 text: "a
    linear interpolation may indicate that the object has passed through
    that neighborhood" even when no sample lies inside.
    """
    polygon = _member_polygon(context, attribute, member)
    moft = context.moft(moft_name)
    matched = set()
    for oid in sorted(moft.objects(), key=repr):
        if moft.sample_count(oid) == 1:
            (_, x, y) = moft.history(oid)[0]
            if polygon.contains_point(Point(x, y)):
                matched.add(oid)
            continue
        if passes_through(context.trajectory(moft_name, oid), polygon):
            matched.add(oid)
    return matched


def time_near_node(
    context: EvaluationContext,
    attribute: str,
    member: Hashable,
    radius: float,
    moft_name: str = "FM",
) -> Dict[Hashable, float]:
    """Per-object time spent within ``radius`` of a node member (query 6)."""
    node = _member_node(context, attribute, member)
    moft = context.moft(moft_name)
    result: Dict[Hashable, float] = {}
    for oid in sorted(moft.objects(), key=repr):
        if moft.sample_count(oid) < 2:
            result[oid] = 0.0
            continue
        result[oid] = time_within_distance(
            context.trajectory(moft_name, oid), node, radius
        )
    return result


def aggregate_trajectory_measure(
    measures: Dict[Hashable, float],
    function: AggregateFunction | str = AggregateFunction.SUM,
) -> float:
    """Fold per-object trajectory measures (Type 8: trajectory aggregation)."""
    if isinstance(function, str):
        function = AggregateFunction.parse(function)
    values = list(measures.values())
    if function is AggregateFunction.COUNT:
        return float(len(values))
    return function.apply(values)
