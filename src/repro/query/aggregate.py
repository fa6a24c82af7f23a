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

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import QueryError
from repro.olap.aggregation import AggregateFunction
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
        Count distinct values of ``measure`` (used when counting objects
        rather than samples); only with ``function`` COUNT.
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
        count = self.function is AggregateFunction.COUNT
        if self.measure is None and (self.distinct or not count):
            raise QueryError(f"{self.function.value} needs a measure column")
        if self.distinct and not count:
            raise QueryError(f"{self.function.value} DISTINCT: only COUNT counts")
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
        """``{group key: value}`` in ``repr`` order of the key (the empty
        tuple when ungrouped; see :meth:`run_scalar`): one group-by over
        the region's codes.  COUNT is a ``bincount``, COUNT DISTINCT one
        over the distinct ``(group, measure)`` pairs; the other functions
        :meth:`~repro.olap.aggregation.AggregateFunction.apply` once per
        group in the relation's row order, so SUM and AVG equal a fold
        over ``region.evaluate``'s rows up to float summation order."""
        relation, spec = self.region.relation(context), self.spec
        first, group = relation.group(spec.group_by)
        if not group.size:
            return {}
        if spec.distinct:
            pairs, _ = relation.group((*spec.group_by, spec.measure))
            values = np.bincount(group[pairs], minlength=first.size) * 1.0
        elif spec.function is AggregateFunction.COUNT:
            values = np.bincount(group, minlength=first.size)
        else:
            measure = relation.column(spec.measure, np.argsort(group, kind="stable"))
            ends = np.cumsum(np.bincount(group)).tolist()
            values = np.fromiter((
                spec.function.apply(measure[lo:hi])
                for lo, hi in zip([0, *ends], ends)
            ), object, first.size)
        if spec.per_span_level is not None:
            values = values / context.time.span(
                spec.per_span_level, spec.per_span_member
            )
        keys = list(zip(*(relation.column(c, first) for c in spec.group_by)))
        keys, values = keys or [()], values.tolist()
        order = sorted(range(first.size), key=lambda i: repr(keys[i]))
        return {keys[i]: values[i] for i in order}

    def run_scalar(self, context: EvaluationContext) -> float:
        """Run an ungrouped query to a single number.

        An empty region yields 0 for COUNT-style queries and raises for
        the value aggregates (which are undefined on empty input).
        """
        if self.spec.group_by:
            raise QueryError("run_scalar on a grouped query; use run()")
        result = self.run(context)
        if not result:
            if self.spec.function is AggregateFunction.COUNT:
                return 0.0
            raise QueryError(
                f"{self.spec.function.value} over an empty region is undefined"
            )
        return result[()]


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
