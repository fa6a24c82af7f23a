"""Aggregation over spatio-temporal regions — the semantics of Section 3.1.

"The semantics of a summable moving objects query ``Q(C)``, where ``C`` is
a relation of the form ``C = {(Oid, t, x, y)}`` is
``Q = γ_{AGG A(X)}(C)``" — i.e. evaluate the region, then apply the
γ-operator of Definition 7.  This module adds the two recurring refinements
of the paper's examples:

* **distinct-object counting** (query 1 counts cars, not samples);
* **per-span normalization** (Remark 1: the count is divided by the time
  span of "the morning" — three hours — giving 4/3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Optional, Sequence, Tuple

from repro.errors import QueryError
from repro.olap.aggregation import AggregateFunction, aggregate, distinct_count
from repro.query.region import EvaluationContext, SpatioTemporalRegion


@dataclass(frozen=True)
class AggregateSpec:
    """How to fold the region relation into the query answer.

    Parameters
    ----------
    function:
        One of Definition 7's AGG functions (or ``"COUNT DISTINCT"`` via
        :attr:`distinct`).
    measure:
        The region column to aggregate (None for COUNT).
    group_by:
        Region columns forming the group key ``X``.
    distinct:
        Count distinct values of ``measure`` instead of applying
        ``function`` (used when counting objects rather than samples).
    per_span_level / per_span_member:
        When set, divide every aggregated value by the number of instants
        rolling up to ``per_span_member`` at ``per_span_level`` — the
        "per hour in the morning" normalization of the running query.
    """

    function: AggregateFunction | str = AggregateFunction.COUNT
    measure: Optional[str] = None
    group_by: Tuple[str, ...] = ()
    distinct: bool = False
    per_span_level: Optional[str] = None
    per_span_member: Optional[Hashable] = None

    def __post_init__(self) -> None:
        if isinstance(self.function, str):
            object.__setattr__(
                self, "function", AggregateFunction.parse(self.function)
            )
        if self.distinct and self.measure is None:
            raise QueryError("distinct counting needs a measure column")
        if (self.per_span_level is None) != (self.per_span_member is None):
            raise QueryError(
                "per-span normalization needs both level and member"
            )


class MovingObjectAggregateQuery:
    """A summable moving-object query: a region plus an aggregate spec."""

    def __init__(
        self, region: SpatioTemporalRegion, spec: AggregateSpec
    ) -> None:
        self.region = region
        self.spec = spec
        for column in spec.group_by:
            if column not in region.output_variables:
                raise QueryError(
                    f"group-by column {column!r} not among region outputs "
                    f"{region.output_variables}"
                )
        if spec.measure is not None and spec.measure not in region.output_variables:
            raise QueryError(
                f"measure column {spec.measure!r} not among region outputs "
                f"{region.output_variables}"
            )

    def run(self, context: EvaluationContext) -> Dict[Tuple[Any, ...], float]:
        """Evaluate the region and aggregate; returns ``{group key: value}``.

        For an ungrouped query the single key is the empty tuple; see
        :meth:`run_scalar`.
        """
        rows = self.region.evaluate(context)
        spec = self.spec
        if spec.distinct:
            result = self._distinct_by_group(rows)
        else:
            if not rows:
                result = {}
            else:
                result = aggregate(
                    rows, spec.function, spec.measure, list(spec.group_by)
                )
        if spec.per_span_level is not None:
            span = context.time.span(spec.per_span_level, spec.per_span_member)
            result = {key: value / span for key, value in result.items()}
        return result

    def run_scalar(self, context: EvaluationContext) -> float:
        """Run an ungrouped query to a single number.

        An empty region yields 0 for COUNT-style queries and raises for
        the value aggregates (which are undefined on empty input).
        """
        if self.spec.group_by:
            raise QueryError("run_scalar on a grouped query; use run()")
        result = self.run(context)
        if not result:
            if self.spec.function is AggregateFunction.COUNT or self.spec.distinct:
                return 0.0
            raise QueryError(
                f"{self.spec.function.value} over an empty region is undefined"
            )
        return result[()]

    def _distinct_by_group(self, rows) -> Dict[Tuple[Any, ...], float]:
        groups: Dict[Tuple[Any, ...], set] = {}
        for row in rows:
            key = tuple(row[c] for c in self.spec.group_by)
            groups.setdefault(key, set()).add(row[self.spec.measure])
        return {key: float(len(values)) for key, values in groups.items()}


def total_dwell_time(
    context: EvaluationContext,
    target: Tuple[str, str],
    constraints: Sequence[Tuple[str, Tuple[str, str]]],
    moft_name: str = "FM",
    window: Optional[Tuple[float, float]] = None,
    stats=None,
    use_preagg: bool = True,
) -> float:
    """Total interpolated time all objects spend inside the answer polygons.

    The dwell-time analogue of
    :func:`~repro.query.evaluator.count_objects_through`: answer the
    geometric subquery, then sum — over every object and every answer
    polygon — the time the linearly-interpolated trajectory spends
    inside, optionally restricted to a ``[start, end]`` window
    (validated like the count).  Overlapping polygons count dwell once
    per polygon, which keeps the measure summable per geometry id
    (Definition 4).

    Resolved like the count, as a ``dwell`` leaf
    (:func:`~repro.query.evaluator.resolve_through`, once per state of
    what it reads), priced by the planner
    (:func:`~repro.query.planner.plan`) and run by the one
    :func:`~repro.query.evaluator.execute`.  With ``use_preagg`` a
    registered fresh :class:`~repro.preagg.PreAggStore` is a candidate:
    cells and spanning records answer the covered granule run — an
    aligned window is one read of the run's cells — and boundary
    slivers are clipped directly, with no trajectory scan at all.  Exact up
    to float summation order; the differential suite pins the tolerance.
    Otherwise the dwell leaf scans the table under the restriction; it
    counts like the count path (into ``stats`` when passed, else the
    context observer): ``scan_rows``, the ``segment_scan`` stage,
    ``segment_checks`` (the pairs) / ``bbox_rejections`` (segments x
    polygons - pairs) and the kernel's own counters.
    """
    from repro.query.evaluator import execute, resolve_through
    from repro.query.planner import plan

    leaf = resolve_through(
        context, target, constraints, moft_name, window=window, obs=stats,
        use_preagg=use_preagg, kind="dwell",
    )
    return execute(leaf, plan(leaf).strategy, stats=stats).answer


def count_per_group(
    region: SpatioTemporalRegion,
    context: EvaluationContext,
    group_by: Sequence[str],
) -> Dict[Tuple[Any, ...], float]:
    """Convenience: COUNT(*) grouped by the given region columns."""
    query = MovingObjectAggregateQuery(
        region, AggregateSpec(group_by=tuple(group_by))
    )
    return query.run(context)


def count_distinct_objects(
    region: SpatioTemporalRegion,
    context: EvaluationContext,
    object_column: str = "oid",
) -> float:
    """Convenience: number of distinct objects in the region."""
    query = MovingObjectAggregateQuery(
        region,
        AggregateSpec(measure=object_column, distinct=True),
    )
    return query.run_scalar(context)
