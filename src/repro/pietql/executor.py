"""Execution of parsed Piet-QL queries.

The geometric part evaluates to the ids of the target layer's elements
satisfying every WHERE condition — answered against the precomputed
overlay (or naive scans, per the context's strategy).  The moving-objects
part then restricts a MOFT by ``DURING`` rollups and, with ``THROUGH
RESULT``, by trajectory intersection against the answer geometries —
exactly the two-stage pipeline of Section 5.

``THROUGH RESULT`` is one more syntax for the through-count of
:mod:`repro.query.evaluator`: the geometric answer and the DURING
instant set go to :func:`~repro.query.evaluator.resolve_through` and
the operands run route-first through :func:`~repro.query.evaluator
.execute_through` (a registered store when one serves, else the scan —
fanned out under a :class:`~repro.parallel.ShardedExecutor`).  The
restricted table is built only when a scan leaf or ``COUNT SAMPLES``
reads it.  ``EXPLAIN`` changes nothing about the run: it prices the
same operands first (:func:`repro.query.planner.plan_through`,
route-first choice forced), puts Piet-QL's own stages in front of the
plan and fills the actuals from that one execution
(:func:`repro.query.planner.record_run`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Set, Tuple

from repro.errors import PietQLExecutionError
from repro.pietql import ast
from repro.pietql.parser import parse
from repro.query.evaluator import (
    ShardedTrajectoryExecutor,
    execute_through,
    resolve_through,
)
from repro.query.planner import (
    CostModel,
    PlanNode,
    QueryPlan,
    execute_poi_plan,
    plan_poi_aggregate,
    plan_through,
    record_run,
)
from repro.query.region import EvaluationContext


@dataclass(frozen=True)
class LayerBinding:
    """Resolution of a Piet-QL layer name to a GIS (layer, kind)."""

    layer: str
    kind: str


@dataclass(frozen=True)
class PietQLResult:
    """The outcome of executing a query.

    ``plan`` is populated only for ``EXPLAIN``-prefixed queries: a
    :class:`~repro.query.planner.QueryPlan` whose tree carries cost-model
    estimates next to the actual rows and stage seconds observed while
    the query ran (``result.plan.render()`` is the EXPLAIN text).
    """

    geometry_ids: frozenset
    count: Optional[float] = None
    matched_objects: Optional[frozenset] = None
    olap_result: Optional[Mapping[Hashable, float]] = None
    plan: Optional[QueryPlan] = None
    poi_result: Optional[Mapping] = None


class PietQLExecutor:
    """Executes Piet-QL queries against an evaluation context.

    Parameters
    ----------
    context:
        GIS + Time + MOFTs, with the overlay strategy flag.
    bindings:
        Mapping from the language's layer names (``layer.cities``) to GIS
        ``(layer, kind)`` pairs.  Names not bound explicitly are resolved
        against the GIS directly when a layer of that name has exactly one
        populated kind.
    """

    def __init__(
        self,
        context: EvaluationContext,
        bindings: Mapping[str, LayerBinding] | None = None,
    ) -> None:
        self.context = context
        self.bindings: Dict[str, LayerBinding] = dict(bindings or {})
        #: Fans THROUGH RESULT scans and POI builds out when set (see
        #: :class:`repro.parallel.ShardedPietQLExecutor`).
        self.sharded: Optional[ShardedTrajectoryExecutor] = None

    # -- binding resolution ------------------------------------------------------

    def resolve(
        self, ref: ast.LayerRef, sublevel: Optional[str] = None
    ) -> LayerBinding:
        """Resolve a layer reference, honoring an explicit sublevel kind."""
        if ref.name in self.bindings:
            binding = self.bindings[ref.name]
            if sublevel is not None and sublevel != binding.kind:
                try:
                    kinds = self.context.gis.layer(binding.layer).kinds()
                except Exception:
                    raise PietQLExecutionError(
                        f"binding {ref.name!r} points at unknown layer "
                        f"{binding.layer!r}"
                    ) from None
                if sublevel not in kinds:
                    raise PietQLExecutionError(
                        f"layer {binding.layer!r} (bound as {ref.name!r}) "
                        f"has no elements of kind {sublevel!r}; "
                        f"available: {sorted(kinds)}"
                    )
                return LayerBinding(binding.layer, sublevel)
            return binding
        try:
            layer = self.context.gis.layer(ref.name)
        except Exception:
            raise PietQLExecutionError(
                f"unknown layer {ref.name!r}: bind it or use a GIS layer name"
            ) from None
        kinds = sorted(layer.kinds())
        if sublevel is not None:
            if sublevel not in kinds:
                raise PietQLExecutionError(
                    f"layer {ref.name!r} has no elements of kind {sublevel!r}"
                )
            return LayerBinding(ref.name, sublevel)
        if len(kinds) != 1:
            raise PietQLExecutionError(
                f"layer {ref.name!r} stores kinds {kinds}; "
                f"disambiguate with sublevel.<kind> or a binding"
            )
        return LayerBinding(ref.name, kinds[0])

    # -- execution -----------------------------------------------------------------

    def execute(self, query: "ast.PietQLQuery | str") -> PietQLResult:
        """Execute a parsed query (or Piet-QL text).

        ``EXPLAIN``-prefixed queries execute the same way; the result
        additionally carries the plan that ran — cost-model estimates
        for every candidate, the route-first choice, and the actual rows
        and seconds of this very execution on each node.
        """
        if isinstance(query, str):
            query = parse(query)
        started = time.perf_counter()
        geometry_ids = self.execute_geometric(query.geometric)
        geo_seconds = time.perf_counter() - started
        olap_result = None
        if query.olap is not None:
            olap_result = self._execute_olap(
                query.olap, query.geometric, geometry_ids
            )
        if query.poi is not None:
            # The POI part plans itself through plan_poi_aggregate; its
            # costed tree is the EXPLAIN plan.
            poi_result, plan = self._execute_poi(query.poi)
            return PietQLResult(
                frozenset(geometry_ids),
                olap_result=olap_result,
                plan=plan if query.explain else None,
                poi_result=poi_result,
            )
        n_ids = len(geometry_ids)
        front: Tuple[PlanNode, ...] = ()
        if query.explain:
            front = self._front_nodes(query, n_ids, geo_seconds, olap_result)
        count = matched = plan = None
        if query.moving_objects is not None:
            count, found, plan = self._execute_moving(
                query, geometry_ids, front
            )
            matched = frozenset(found)
        elif query.explain:
            plan = QueryPlan(
                strategy="geometric",
                root=PlanNode(
                    op="Aggregate",
                    detail="geometric result",
                    est_rows=n_ids,
                    est_cost=0.0,
                    children=front,
                    actual_rows=n_ids,
                ),
                est_cost=0.0,
                executed=True,
                result_count=n_ids,
            )
        if plan is not None:
            plan.root.actual_seconds = time.perf_counter() - started
        return PietQLResult(
            frozenset(geometry_ids), count, matched, olap_result, plan
        )

    @staticmethod
    def _front_nodes(
        query: ast.PietQLQuery,
        n_ids: int,
        geo_seconds: float,
        olap_result: Optional[Mapping],
    ) -> Tuple[PlanNode, ...]:
        """Piet-QL's own stages, rendered in front of an EXPLAIN plan's
        strategy subtree."""
        geo = query.geometric
        nodes = [
            PlanNode(
                op="GeometricSubquery",
                detail=(
                    f"schema={geo.schema_name}, "
                    f"conditions={len(geo.conditions)}"
                ),
                actual_rows=n_ids,
                actual_seconds=geo_seconds,
            )
        ]
        if query.olap is not None:
            label = f"{query.olap.function}({query.olap.value_name})"
            if query.olap.by_level is not None:
                label += f" BY {query.olap.by_level}"
            nodes.append(
                PlanNode(
                    op="OlapAggregate",
                    detail=label,
                    actual_rows=len(olap_result),
                )
            )
        return tuple(nodes)

    def _execute_poi(
        self, poi: "ast.PoiAggQuery"
    ) -> Tuple[Mapping, QueryPlan]:
        """Run the POI aggregation part through the cost-based planner.

        The ``AT`` reference must resolve to a place-of-interest layer:
        a binding of any other geometry kind is a typed execution error
        (the language keeps discs and, say, polygon layers apart).  The
        measure is dispatched through :func:`repro.query.planner
        .plan_poi_aggregate` so EXPLAIN shows the routed strategy, with
        ``self.sharded`` as its executor exactly as ``THROUGH RESULT``
        passes it: a plain executor has no fan-out to choose.
        """
        from repro.gis import geometries as gk

        binding = self.resolve(poi.at)
        if binding.kind != gk.POI:
            raise PietQLExecutionError(
                f"AT expects a place-of-interest layer; layer.{poi.at.name} "
                f"is bound to {binding.layer!r} kind {binding.kind!r}, "
                f"not {gk.POI!r}"
            )
        options = dict(
            min_dwell=poi.min_dwell,
            moft_name=poi.moft_name,
            measure=poi.measure,
            k=poi.k,
            executor=self.sharded,
        )
        try:
            plan = plan_poi_aggregate(
                self.context, binding.layer, poi.by_level, **options
            )
            result = execute_poi_plan(
                plan, self.context, binding.layer, poi.by_level, **options
            )
        except PietQLExecutionError:
            raise
        except Exception as exc:
            raise PietQLExecutionError(str(exc)) from exc
        return result, plan

    def _execute_olap(
        self,
        olap: "ast.OlapQuery",
        geo: "ast.GeometricQuery",
        geometry_ids: Set[Hashable],
    ) -> Dict[Hashable, float]:
        """Aggregate application-part values of the result members.

        The target's (layer, kind) determines the application attribute
        through the schema placements; result ids map to members via
        α-inverse, member values named ``olap.value_name`` are folded with
        the aggregate function, grouped by the ``BY`` level's rollup when
        present (the group key is the rolled-up member; ungrouped results
        use the single key ``"all"``).
        """
        from repro.olap.aggregation import AggregateFunction

        binding = self.resolve(geo.target)
        schema = self.context.gis.schema
        attribute = None
        for candidate in schema.attributes:
            placement = schema.placement(candidate)
            if (placement.layer, placement.kind) == (
                binding.layer,
                binding.kind,
            ):
                attribute = candidate
                break
        if attribute is None:
            raise PietQLExecutionError(
                f"no application attribute is placed on "
                f"{binding.layer}:{binding.kind}; cannot aggregate"
            )
        members = []
        for gid in geometry_ids:
            members.extend(self.context.gis.alpha_inverse(attribute, gid))
        if not members:
            return {}
        groups: Dict[Hashable, list] = {}
        dimension = schema.dimension_for_attribute(attribute)
        for member in members:
            value = self.context.gis.member_value(
                attribute, member, olap.value_name
            )
            if olap.by_level is None:
                key: Hashable = "all"
            else:
                if dimension is None:
                    raise PietQLExecutionError(
                        f"attribute {attribute!r} has no application "
                        f"dimension; cannot roll up to {olap.by_level!r}"
                    )
                instance = self.context.gis.application_instance(
                    dimension.name
                )
                key = instance.rollup(member, attribute, olap.by_level)
            groups.setdefault(key, []).append(value)
        function = AggregateFunction.parse(olap.function)
        return {key: function.apply(values) for key, values in groups.items()}

    def execute_geometric(self, geo: ast.GeometricQuery) -> Set[Hashable]:
        """Evaluate the geometric part to target-element ids."""
        with self.context.obs.stage("geometric_subquery"):
            return self._execute_geometric(geo)

    def _execute_geometric(self, geo: ast.GeometricQuery) -> Set[Hashable]:
        target_ref = geo.target
        result: Optional[Set[Hashable]] = None
        for condition in geo.conditions:
            ids = self._condition_ids(condition, target_ref)
            result = ids if result is None else result & ids
            if not result:
                return set()
        if result is None:
            binding = self.resolve(target_ref)
            return set(
                self.context.gis.layer(binding.layer).elements(binding.kind)
            )
        return result

    def _condition_ids(
        self, condition: ast.GeoCondition, target_ref: ast.LayerRef
    ) -> Set[Hashable]:
        """Target ids satisfying one condition (other operand existential)."""
        if condition.left == target_ref:
            other_ref, target_is_left = condition.right, True
        else:
            other_ref, target_is_left = condition.left, False
        target = self.resolve(target_ref)
        other = self.resolve(other_ref, condition.sublevel)
        predicate = condition.predicate
        if predicate == "intersection":
            predicate = "intersects"
        if target_is_left:
            pairs = self.context.geometry_pairs(
                target.layer, target.kind, predicate, other.layer, other.kind
            )
            return {a for a, _ in pairs}
        pairs = self.context.geometry_pairs(
            other.layer, other.kind, predicate, target.layer, target.kind
        )
        return {b for _, b in pairs}

    def _during_instants(
        self, mo: ast.MovingObjectQuery
    ) -> Optional[Set[float]]:
        """The instants every DURING clause allows (None: no clause)."""
        allowed: Optional[Set[float]] = None
        time_dim = self.context.time
        for clause in mo.during:
            instants = time_dim.instants_where(clause.level, clause.member)
            if not instants and clause.member.replace(".", "", 1).isdigit():
                # Numeric members may be stored as numbers.
                instants = time_dim.instants_where(
                    clause.level, float(clause.member)
                ) | time_dim.instants_where(
                    clause.level, int(float(clause.member))
                )
            clause_instants = {float(t) for t in instants}
            allowed = (
                clause_instants
                if allowed is None
                else allowed & clause_instants
            )
        return allowed

    def _execute_moving(
        self,
        query: ast.PietQLQuery,
        geometry_ids: Set[Hashable],
        front: Tuple[PlanNode, ...],
    ) -> Tuple[float, Set[Hashable], Optional[QueryPlan]]:
        """The moving-objects part: ``(count, matched objects, plan)``.

        The plan is built (and priced) only under EXPLAIN.
        """
        mo = query.moving_objects
        context = self.context
        started = time.perf_counter()
        instants = self._during_instants(mo)
        during_seconds = time.perf_counter() - started
        context.obs.record("during_restriction", during_seconds)
        if query.explain and mo.during:
            clauses = ", ".join(f"{c.level}={c.member!r}" for c in mo.during)
            front += (
                PlanNode(
                    "DuringRestriction", clauses,
                    actual_seconds=during_seconds,
                ),
            )
        label = f"count_{mo.count_what.lower()}, moft={mo.moft_name}"
        plan: Optional[QueryPlan] = None
        if not mo.through_result:
            moft = context.moft(mo.moft_name)
            rows = len(moft)
            if instants is not None:
                moft = moft.restrict_instants(instants)
            matched = moft.objects()
            samples = len(moft)
            if query.explain:
                cost = rows * CostModel().row_cost
                body = PlanNode(
                    "CountRows", f"moft={mo.moft_name}", est_rows=rows,
                    est_cost=cost, actual_rows=len(matched),
                )
                plan = QueryPlan(
                    strategy="count",
                    root=PlanNode(
                        "Aggregate", f"{label}, strategy=count",
                        est_rows=1, est_cost=cost,
                        children=front + (body,),
                    ),
                    est_cost=cost,
                    executed=True,
                )
        else:
            binding = self.resolve(query.geometric.target)
            ops = resolve_through(
                context,
                (binding.layer, binding.kind),
                moft_name=mo.moft_name,
                instants=instants,
                ids=geometry_ids,
            )
            use_store = ops.route_first()
            if query.explain:
                # Priced before it runs (the run caches the grid index);
                # an empty answer fans nothing out.
                if use_store:
                    route = "preagg"
                elif self.sharded is not None and ops.ids:
                    route = "sharded"
                else:
                    route = "grid"
                plan = plan_through(
                    ops, self.sharded, force_strategy=route,
                    front=front, label=label,
                )
            started = time.perf_counter()
            run = execute_through(ops, use_store, self.sharded)
            matched = run.matched
            if plan is not None:
                record_run(plan, run, time.perf_counter() - started)
            if mo.count_what != "OBJECTS":
                table = ops.table
                samples = sum(table.sample_count(oid) for oid in matched)
        count = float(
            len(matched) if mo.count_what == "OBJECTS" else samples
        )
        if plan is not None:
            plan.root.actual_rows = len(matched)
            plan.result_count = int(count)
        return count, matched, plan


def run(
    text: str,
    context: EvaluationContext,
    bindings: Mapping[str, LayerBinding] | None = None,
) -> PietQLResult:
    """Parse and execute Piet-QL text in one call."""
    return PietQLExecutor(context, bindings).execute(text)
