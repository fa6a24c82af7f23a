"""The paper's core contribution: spatio-temporal aggregate queries.

FO constraint formulas define regions ``C`` over the MOFT, the GIS
dimension and the Time dimension; γ-aggregation over the evaluated region
answers the query; the taxonomy of Section 3.1 classifies it; the Piet
pipeline of Section 5 evaluates geometry-heavy queries over precomputed
overlays.
"""

from repro.obs import PipelineStats, StageTimer
from repro.query import ast
from repro.query.region import EvaluationContext, SpatioTemporalRegion
from repro.query.aggregate import (
    AggregateSpec,
    MovingObjectAggregateQuery,
    count_distinct_objects,
    count_per_group,
)
from repro.query.classify import QueryType, classify
from repro.query.builder import RegionBuilder
from repro.query.evaluator import (
    EvaluationStats,
    TrajectoryIntersectionCounter,
    count_objects_through,
    geometric_subquery,
)
from repro.query.planner import (
    CostModel,
    PlanNode,
    QueryPlan,
    plan_count_objects_through,
    planned_count_objects_through,
)
from repro.query.vectorized import polygon_contains_batch
from repro.query.trajectory_queries import (
    aggregate_trajectory_measure,
    objects_passing_through,
    presence_intervals,
    time_near_node,
    time_spent_in,
)

__all__ = [
    "ast",
    "EvaluationContext",
    "SpatioTemporalRegion",
    "AggregateSpec",
    "MovingObjectAggregateQuery",
    "count_distinct_objects",
    "count_per_group",
    "QueryType",
    "classify",
    "RegionBuilder",
    "EvaluationStats",
    "PipelineStats",
    "StageTimer",
    "TrajectoryIntersectionCounter",
    "count_objects_through",
    "geometric_subquery",
    "CostModel",
    "PlanNode",
    "QueryPlan",
    "plan_count_objects_through",
    "planned_count_objects_through",
    "polygon_contains_batch",
    "aggregate_trajectory_measure",
    "objects_passing_through",
    "presence_intervals",
    "time_near_node",
    "time_spent_in",
]
