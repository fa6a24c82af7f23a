"""Execution of parsed Piet-QL queries.

The geometric part evaluates to the ids of the target layer's elements
satisfying every WHERE condition — answered against the precomputed
overlay (or naive scans, per the context's strategy).  The moving-objects
part then restricts a MOFT by ``DURING`` rollups and, with ``THROUGH
RESULT``, by trajectory intersection against the answer geometries —
exactly the two-stage pipeline of Section 5.

Both aggregate parts are front-ends of the one leaf path
(:mod:`repro.query.evaluator`).  ``THROUGH RESULT`` is one more syntax
for the through-count: the geometric answer and the DURING instant set
go to :func:`~repro.query.evaluator.resolve_through`, the leaf to one
:func:`repro.query.planner.plan` call and the plan to the one executor
(:meth:`~repro.query.planner.QueryPlan.execute`), exactly as a planned
count runs.  An executor given as ``sharded`` is the planner's fan-out
candidate; without one the plan is forced to a registered store when
one serves, else to the grid scan
(:func:`~repro.query.evaluator.store_or_scan`), and
:class:`~repro.parallel.ShardedPietQLExecutor` forces its fan-out.  The
POI part resolves its layer (:func:`~repro.query.poi.resolve_poi`) and
takes the same plan → execute steps.  A ``COUNT OBJECTS|SAMPLES``
without ``THROUGH RESULT`` reads the table's DURING row mask; nothing
builds a restricted table.  ``EXPLAIN`` changes nothing about the run:
it puts Piet-QL's own stages in front of that same plan, whose actuals
the run filled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, Mapping, Optional, Set, Tuple

import numpy as np

from repro.errors import PietQLExecutionError
from repro.geometry.overlay import CONVERSE
from repro.mo.moft import ObjectSet
from repro.pietql import ast
from repro.pietql.parser import parse
from repro.query import evaluator
from repro.query.evaluator import Leaf, resolve_through, store_or_scan
from repro.query.planner import CostModel, PlanNode, QueryPlan, plan
from repro.query.poi import resolve_poi
from repro.query.region import EvaluationContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.executor import ShardedExecutor


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
    ``matched_objects`` is the answer as codes into the MOFT queried (an
    :class:`~repro.mo.moft.ObjectSet`, equal to the frozenset of its ids).
    """

    geometry_ids: frozenset
    count: Optional[float] = None
    matched_objects: Optional[ObjectSet] = None
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
    sharded:
        A :class:`~repro.parallel.ShardedExecutor` the planner may fan
        ``THROUGH RESULT`` scans and POI builds out on, when it prices
        that below the in-process strategies (None: nothing fans out;
        :class:`~repro.parallel.ShardedPietQLExecutor` always fans out).
    """

    def __init__(
        self,
        context: EvaluationContext,
        bindings: Mapping[str, LayerBinding] | None = None,
        sharded: Optional[ShardedExecutor] = None,
    ) -> None:
        self.context = context
        self.bindings: Dict[str, LayerBinding] = dict(bindings or {})
        self.sharded = sharded

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
        for every candidate, the strategy chosen, and the actual rows
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
            # The POI part is planned on its own leaf; its costed tree
            # is the EXPLAIN plan.
            poi_result, poi_plan = self._poi_aggregate(query.poi)
            return PietQLResult(
                frozenset(geometry_ids),
                olap_result=olap_result,
                plan=poi_plan if query.explain else None,
                poi_result=poi_result,
            )
        n_ids = len(geometry_ids)
        front: Tuple[PlanNode, ...] = ()
        if query.explain:
            front = self._front_nodes(query, n_ids, geo_seconds, olap_result)
        count = matched = plan = None
        if query.moving_objects is not None:
            count, matched, plan = self._execute_moving(
                query, geometry_ids, front
            )
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

    def _poi_aggregate(
        self, poi: "ast.PoiAggQuery"
    ) -> Tuple[Mapping, QueryPlan]:
        """Run the POI aggregation part: resolve, plan, execute.

        The ``AT`` reference must resolve to a place-of-interest layer:
        a binding of any other geometry kind is a typed execution error
        (the language keeps discs and, say, polygon layers apart).  The
        plan prices ``self.sharded`` as its fan-out exactly as ``THROUGH
        RESULT`` does, so EXPLAIN shows the routed strategy: a plain
        executor has no fan-out to choose.
        """
        from repro.gis import geometries as gk

        binding = self.resolve(poi.at)
        if binding.kind != gk.POI:
            raise PietQLExecutionError(
                f"AT expects a place-of-interest layer; layer.{poi.at.name} "
                f"is bound to {binding.layer!r} kind {binding.kind!r}, "
                f"not {gk.POI!r}"
            )
        try:
            leaf = resolve_poi(
                self.context, binding.layer, poi.by_level, poi.min_dwell,
                poi.moft_name, poi.measure, poi.k,
            )
            chosen = plan(leaf, self.sharded)
            result = chosen.execute(self.sharded).answer
        except PietQLExecutionError:
            raise
        except Exception as exc:
            raise PietQLExecutionError(str(exc)) from exc
        return result, chosen

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
        # Fold in repr order: a float sum depends on its order, and a
        # set's order follows the hash seed.
        members = []
        for gid in sorted(geometry_ids, key=repr):
            members.extend(sorted(
                self.context.gis.alpha_inverse(attribute, gid), key=repr
            ))
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
        """Evaluate the geometric part to target-element ids: one
        :func:`~repro.query.evaluator.geometric_subquery` call, each
        condition read from the target's side (a target on the right
        takes the converse predicate; the other operand is
        existential)."""
        target = self.resolve(geo.target)
        constraints = []
        for condition in geo.conditions:
            predicate = condition.predicate
            if predicate == "intersection":
                predicate = "intersects"
            if condition.left == geo.target:
                other_ref = condition.right
            else:
                other_ref, predicate = condition.left, CONVERSE[predicate]
            other = self.resolve(other_ref, condition.sublevel)
            constraints.append((predicate, (other.layer, other.kind)))
        return evaluator.geometric_subquery(
            self.context, (target.layer, target.kind), constraints
        )

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
    ) -> Tuple[float, ObjectSet, Optional[QueryPlan]]:
        """The moving-objects part: ``(count, matched objects, plan)``.

        A ``THROUGH RESULT`` is planned (:func:`~repro.query.planner
        .plan`, the strategy from :meth:`_through_route`) and run from
        that plan (:meth:`~repro.query.planner.QueryPlan.execute`); the
        plan is returned only under EXPLAIN.
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
        chosen: Optional[QueryPlan] = None
        if not mo.through_result:
            moft = context.moft(mo.moft_name)
            rows = len(moft)
            if instants is None:
                codes, samples = np.arange(moft.oids.shape[0]), rows
            else:
                # The DURING rows, read as a mask: no restricted table.
                mask = moft.instants_mask(instants)
                codes = np.flatnonzero(np.bincount(
                    moft.object_codes()[mask], minlength=moft.oids.shape[0]
                ))
                samples = int(mask.sum())
            matched = moft.object_set(codes)
            if query.explain:
                cost = rows * CostModel().row_cost
                body = PlanNode(
                    "CountRows", f"moft={mo.moft_name}", est_rows=rows,
                    est_cost=cost, actual_rows=len(matched),
                )
                chosen = QueryPlan(
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
            leaf = resolve_through(
                context,
                (binding.layer, binding.kind),
                moft_name=mo.moft_name,
                instants=instants,
                ids=geometry_ids,
            )
            chosen = plan(
                leaf, self.sharded, force_strategy=self._through_route(leaf),
                front=front, label=label,
            )
            matched = chosen.execute(self.sharded).answer
            if mo.count_what != "OBJECTS":
                # Each object's rows under the restriction, one bincount,
                # summed over the answer's codes.
                codes, mask = leaf.moft.object_codes(), leaf.row_mask
                per_object = np.bincount(
                    codes if mask is None else codes[mask],
                    minlength=leaf.moft.oids.shape[0],
                )
                samples = int(per_object[matched.codes].sum())
        count = float(
            len(matched) if mo.count_what == "OBJECTS" else samples
        )
        if chosen is None or not query.explain:
            return count, matched, None
        chosen.root.actual_rows = len(matched)
        chosen.result_count = int(count)
        return count, matched, chosen

    def _through_route(self, leaf: Leaf) -> Optional[str]:
        """The strategy a ``THROUGH RESULT`` is forced to (None: the
        planner prices the candidates, ``self.sharded`` among them).

        Without an executor: the store when one serves, else the grid
        scan.
        """
        return None if self.sharded is not None else store_or_scan(leaf)


def run(
    text: str,
    context: EvaluationContext,
    bindings: Mapping[str, LayerBinding] | None = None,
) -> PietQLResult:
    """Parse and execute Piet-QL text in one call."""
    return PietQLExecutor(context, bindings).execute(text)
