"""The query-type taxonomy of Section 3.1.

The paper characterizes eight situations for spatio-temporal aggregate
queries.  :func:`classify` inspects a region formula (and, optionally, its
aggregate spec) and assigns the type by structural rules mirroring the
paper's characterization:

1. spatial aggregation over a density fact table;
2. spatial aggregation with numeric application-part information in ``C``;
3. pure trajectory-sample queries (MOFT + Time only);
4. trajectory samples constrained by geometry;
5. trajectory samples with *aggregation inside* ``C``;
6. trajectory treated as a static spatial object (time fixed);
7. trajectory queries: any trajectory atom (interpolation between
   samples, or the lifeline beads of ``PossiblyThrough``);
8. aggregation over trajectory-derived measures.
"""

from __future__ import annotations

import enum
from typing import Iterator

from repro.query import ast
from repro.query.region import SpatioTemporalRegion


class QueryType(enum.IntEnum):
    """The eight query types of Section 3.1."""

    SPATIAL_AGGREGATION = 1
    SPATIAL_WITH_NUMERIC = 2
    TRAJECTORY_SAMPLES = 3
    SAMPLES_WITH_GEOMETRY = 4
    SAMPLES_WITH_AGGREGATED_REGION = 5
    TRAJECTORY_AS_SPATIAL_OBJECT = 6
    TRAJECTORY_QUERY = 7
    TRAJECTORY_AGGREGATION = 8

    @property
    def description(self) -> str:
        """The paper's one-line characterization."""
        return _DESCRIPTIONS[self]


_DESCRIPTIONS = {
    QueryType.SPATIAL_AGGREGATION: (
        "Spatial aggregation: the fact table is a density function in the "
        "geometric part"
    ),
    QueryType.SPATIAL_WITH_NUMERIC: (
        "Spatial aggregation & numeric information from the application part"
    ),
    QueryType.TRAJECTORY_SAMPLES: (
        "Trajectory samples: MOFT and Time dimension only, no spatial data"
    ),
    QueryType.SAMPLES_WITH_GEOMETRY: (
        "Trajectory samples & condition over the geometry"
    ),
    QueryType.SAMPLES_WITH_AGGREGATED_REGION: (
        "Trajectory samples & spatial aggregation inside the region C"
    ),
    QueryType.TRAJECTORY_AS_SPATIAL_OBJECT: (
        "Trajectory as a spatial object: time instant fixed"
    ),
    QueryType.TRAJECTORY_QUERY: (
        "Trajectory query: linear interpolation between samples required"
    ),
    QueryType.TRAJECTORY_AGGREGATION: (
        "Trajectory aggregation: aggregate over trajectory-derived measures"
    ),
}


def _walk(formula: ast.Formula) -> Iterator[ast.Formula]:
    yield formula
    if isinstance(formula, (ast.And, ast.Or)):
        for child in formula.children:
            yield from _walk(child)
    elif isinstance(formula, ast.Not):
        yield from _walk(formula.child)
    elif isinstance(formula, (ast.Exists, ast.ForAll)):
        yield from _walk(formula.child)


def classify(
    region: SpatioTemporalRegion,
    aggregates_trajectory_measure: bool = False,
    region_uses_aggregation: bool = False,
) -> QueryType:
    """Assign a Section-3.1 type to a region query.

    ``aggregates_trajectory_measure`` marks queries whose aggregate folds
    per-trajectory quantities (Type 8); ``region_uses_aggregation`` marks
    regions whose membership condition itself required an aggregation
    ("second-order" regions, Type 5) — both facts live outside the formula
    and are supplied by the caller.
    """
    nodes = list(_walk(region.formula))
    has_moft = any(isinstance(n, ast.Moft) for n in nodes)
    has_trajectory = any(isinstance(n, ast.TrajectoryAtom) for n in nodes)
    has_spatial = any(
        isinstance(
            n, (ast.PointIn, ast.GeometryRelation, ast.WithinDistance, ast.Alpha)
        )
        for n in nodes
    ) or has_trajectory
    has_member_numeric = any(
        isinstance(n, ast.Compare)
        and (
            isinstance(n.lhs, ast.MemberValue)
            or isinstance(n.rhs, ast.MemberValue)
        )
        for n in nodes
    )
    time_fixed = any(
        isinstance(n, ast.Moft) and isinstance(n.t, ast.Const) for n in nodes
    )

    if aggregates_trajectory_measure:
        return QueryType.TRAJECTORY_AGGREGATION
    if not has_moft:
        if has_member_numeric:
            return QueryType.SPATIAL_WITH_NUMERIC
        return QueryType.SPATIAL_AGGREGATION
    if region_uses_aggregation:
        return QueryType.SAMPLES_WITH_AGGREGATED_REGION
    if has_trajectory:
        return QueryType.TRAJECTORY_QUERY
    if time_fixed:
        return QueryType.TRAJECTORY_AS_SPATIAL_OBJECT
    if has_spatial:
        return QueryType.SAMPLES_WITH_GEOMETRY
    return QueryType.TRAJECTORY_SAMPLES
