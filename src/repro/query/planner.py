"""Cost-based planning of the Section 5 pipeline, with EXPLAIN.

There are four ways to answer "count the objects passing through these
geometries over this time restriction": the serial scan (the paper's
baseline), the grid-indexed scan, the sharded fan-out
(:class:`~repro.parallel.ShardedExecutor`) and the materialized
pre-aggregation route with its sliver hybrid (:mod:`repro.preagg`).
All four run on the operands one
:func:`~repro.query.evaluator.resolve_through` call resolves, through
the one :func:`~repro.query.evaluator.execute_through`; the route-first
front-ends (``count_objects_through``, ``total_dwell_time``) take "the
store when one serves, else the scan" without a price.  This module
makes the choice a *costed* decision — for planned counts, service
specs and Piet-QL's ``THROUGH RESULT`` alike:

* **statistics** — :func:`geometry_statistics` (bbox-coverage
  selectivity of the answer geometries against the table's spatial
  extent) and, from the operands, the restricted row count, the store's
  granule run and the sliver row count (:func:`table_statistics` serves
  the POI plans);

* a **cost model** (:class:`CostModel`) pricing every candidate
  strategy in one abstract unit (≈ one geometry intersection check):
  rows×geometries for the serial scan, probe + coverage-discounted
  checks for the indexed scan, scan/speedup + per-task overhead (+ a
  per-row charge for a table a process executor does not hold resident
  yet) for the sharded fan-out, and granule reads + residual sliver
  scan for the pre-agg hybrid;

* an **EXPLAIN surface** — :func:`plan_count_objects_through` resolves
  and returns a :class:`QueryPlan` (:func:`plan_through` prices operands
  somebody else resolved — Piet-QL, which forces the route-first
  choice when it holds no executor, or its fan-out under
  :class:`~repro.parallel.ShardedPietQLExecutor`); :func:`run_plan` /
  :func:`execute_plan` execute the chosen strategy *from the plan's
  operands*; :func:`explain` renders the tree with estimated vs.
  *actual* rows and seconds, read off the stats object of that one
  execution.

The planner chooses *how* the one executor runs, never *what* it
answers (``tests/parallel`` pins every strategy to the serial scan).
The cost constants are calibration knobs, not truth: *whatever* the
constants, the chosen strategy returns the same answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import EvaluationError
from repro.geometry.overlay import geometry_bbox
from repro.mo.moft import MOFT
from repro.obs import EvaluationStats
from repro.query.evaluator import (
    ThroughOperands,
    execute_through,
    resolve_through,
)
from repro.query.poi import execute_poi, no_executor_error, resolve_poi
from repro.query.region import EvaluationContext

if TYPE_CHECKING:
    from repro.parallel.executor import ShardedExecutor


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableStatistics:
    """Row/object counts and time extent of one MOFT."""

    name: str
    rows: int
    objects: int
    time_min: Optional[float]
    time_max: Optional[float]


def table_statistics(moft: MOFT) -> TableStatistics:
    """Collect :class:`TableStatistics` from a MOFT: the cached time
    range and the segment index's object count, no pass over rows."""
    if len(moft) == 0:
        return TableStatistics(moft.name, 0, 0, None, None)
    tmin, tmax = moft.time_range()
    return TableStatistics(
        moft.name, len(moft), len(moft.segment_index().oids), tmin, tmax
    )


@dataclass(frozen=True)
class GeometryStatistics:
    """Selectivity figures of one geometric answer against one MOFT.

    ``coverage`` estimates the fraction of trajectory probes whose
    bounding box meets some answer geometry — the bbox area of the
    geometries over the table's sampled spatial extent, clamped to
    [0, 1].  It discounts the per-probe check count on the grid-indexed
    path: a probe only reaches real intersection tests for geometries
    the grid did not prune.
    """

    count: int
    coverage: float


def geometry_statistics(
    context: EvaluationContext,
    target: Tuple[str, str],
    ids: Set[Hashable],
    moft: MOFT,
) -> GeometryStatistics:
    """Estimate answer-geometry selectivity against the MOFT's extent
    (its cached :meth:`~repro.mo.moft.MOFT.bbox`)."""
    if not ids:
        return GeometryStatistics(0, 0.0)
    if len(moft) == 0:
        return GeometryStatistics(len(ids), 1.0)
    layer, kind = target
    elements = context.gis.layer(layer).elements(kind)
    bounds = moft.bbox()
    extent = (bounds.max_x - bounds.min_x) * (bounds.max_y - bounds.min_y)
    if extent <= 0:
        return GeometryStatistics(len(ids), 1.0)
    area = 0.0
    for gid in ids:
        box = geometry_bbox(elements[gid])
        area += max(0.0, box.max_x - box.min_x) * max(
            0.0, box.max_y - box.min_y
        )
    return GeometryStatistics(len(ids), min(1.0, area / extent))


# ---------------------------------------------------------------------------
# The cost model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostModel:
    """Prices candidate strategies in abstract check-equivalent units.

    One unit ≈ one geometry×probe intersection test.  The constants are
    deliberately coarse: the planner only needs the *ordering* of
    strategies to be sane, and the differential tests pin that the
    answer is identical whatever it picks.
    """

    #: One geometry×probe intersection test.
    check_cost: float = 1.0
    #: Touching one MOFT row (iteration, history reconstruction).
    row_cost: float = 0.05
    #: One grid-index probe per trajectory probe.
    probe_cost: float = 0.25
    #: Building a grid index, per geometry (skipped when cached).
    index_build_per_geometry: float = 8.0
    #: Reading one store cell run entry, per geometry per granule.
    granule_cost: float = 0.5
    #: Fixed per-shard-task overhead by backend.  Processes: the round
    #: trip of one task through the executor's resident pool (0.25 ms
    #: measured, at ~0.1 us a unit) — no pool is forked per fan-out.
    serial_task_overhead: float = 2.0
    process_task_overhead: float = 2500.0
    #: Making one row of a table the executor does not yet hold
    #: resident: partition, shared-memory image, the workers' open and
    #: segment index (78 ms per 100k rows measured).  Nothing crosses
    #: the process boundary per row once the shards are resident.
    process_row_ship_cost: float = 6.0

    def scan_cost(
        self,
        rows: int,
        n_geometries: int,
        coverage: float,
        indexed: bool,
        index_cached: bool = True,
    ) -> float:
        """Cost of one trajectory scan (serial or grid-indexed)."""
        if not indexed:
            per_row = self.row_cost + n_geometries * self.check_cost
            return rows * per_row
        per_row = (
            self.row_cost
            + self.probe_cost
            + coverage * n_geometries * self.check_cost
        )
        cost = rows * per_row
        if not index_cached:
            cost += n_geometries * self.index_build_per_geometry
        return cost

    def sharded_cost(
        self,
        scan: float,
        backend: str,
        n_shards: int,
        rows: int,
        resident: bool = False,
    ) -> float:
        """Cost of fanning a scan of cost ``scan`` over ``n_shards``.

        ``rows`` is the size of the table the executor partitions and
        ``resident`` whether it already holds those shards (processes
        backend: a table seen for the first time pays per row).
        """
        if backend == "processes":
            speedup = float(max(1, n_shards))
            overhead = n_shards * self.process_task_overhead
            if not resident:
                overhead += rows * self.process_row_ship_cost
        else:
            speedup = 1.0
            overhead = n_shards * self.serial_task_overhead
        return scan / speedup + overhead

    def preagg_cost(
        self,
        granules: int,
        n_geometries: int,
        sliver_rows: int,
        coverage: float,
    ) -> float:
        """Cost of the pre-agg lookup plus the residual sliver scan."""
        lookup = granules * n_geometries * self.granule_cost
        if sliver_rows:
            lookup += self.scan_cost(
                sliver_rows, n_geometries, coverage, indexed=True
            )
        return lookup


# ---------------------------------------------------------------------------
# Plan trees
# ---------------------------------------------------------------------------


@dataclass
class PlanNode:
    """One operator of a plan tree, with estimates and (later) actuals."""

    op: str
    detail: str
    est_rows: Optional[int] = None
    est_cost: Optional[float] = None
    children: Tuple["PlanNode", ...] = ()
    actual_rows: Optional[int] = None
    actual_seconds: Optional[float] = None

    def render(self, indent: int = 0) -> List[str]:
        pad = "  " * indent
        parts = []
        if self.est_rows is not None:
            parts.append(f"est_rows={self.est_rows}")
        if self.est_cost is not None:
            parts.append(f"est_cost={self.est_cost:.1f}")
        if self.actual_rows is not None:
            parts.append(f"actual_rows={self.actual_rows}")
        if self.actual_seconds is not None:
            parts.append(f"actual_s={self.actual_seconds:.6f}")
        suffix = f"  ({', '.join(parts)})" if parts else ""
        lines = [f"{pad}{self.op}[{self.detail}]{suffix}"]
        for child in self.children:
            lines.extend(child.render(indent + 1))
        return lines

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, op: str) -> Optional["PlanNode"]:
        for node in self.walk():
            if node.op == op:
                return node
        return None


#: The strategies the planner knows how to price and execute.
STRATEGIES = ("serial", "grid", "sharded", "preagg")


@dataclass
class QueryPlan:
    """A costed, renderable plan for one aggregate.

    ``operands`` is what planning resolved and execution runs on (a
    :class:`~repro.query.evaluator.ThroughOperands` or a
    :class:`~repro.query.poi.PoiOperands`): executing a plan resolves
    nothing again.
    """

    strategy: str
    root: PlanNode
    est_cost: float
    alternatives: Tuple[Tuple[str, float], ...] = ()
    geometry: Optional[GeometryStatistics] = None
    shard_count: Optional[int] = None
    shard_backend: Optional[str] = None
    operands: Optional[object] = field(default=None, repr=False)
    executed: bool = False
    result_count: Optional[int] = None

    def render(self) -> str:
        """The EXPLAIN text: the plan tree plus the rejected candidates."""
        header = (
            f"QueryPlan strategy={self.strategy} "
            f"est_cost={self.est_cost:.1f}"
        )
        if self.executed:
            header += f" (executed: count={self.result_count})"
        lines = [header]
        lines.extend(self.root.render(1))
        if self.alternatives:
            rejected = ", ".join(
                f"{name}={cost:.1f}" for name, cost in self.alternatives
            )
            lines.append(f"  rejected: {rejected}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def plan_through(
    ops: ThroughOperands,
    executor: Optional[ShardedExecutor] = None,
    cost_model: Optional[CostModel] = None,
    force_strategy: Optional[str] = None,
    front: Tuple[PlanNode, ...] = (),
    label: str = "count_objects_through",
) -> QueryPlan:
    """Price every strategy applicable to resolved operands.

    Candidates: ``serial`` (unindexed scan), ``grid`` (indexed scan,
    always applicable), ``sharded`` (only when ``executor`` is given —
    priced and recorded with the executor's backend and shard count)
    and ``preagg`` (only when the operands carry a store).  The cheapest
    wins unless ``force_strategy`` names one (the differential tests
    drive every strategy this way; Piet-QL without an executor forces
    its route-first choice); forcing an inapplicable strategy raises
    :class:`EvaluationError`.  ``front`` are the nodes rendered before
    the strategy's subtree, ``label`` names the aggregate on the root.
    """
    model = cost_model if cost_model is not None else CostModel()
    context, moft = ops.context, ops.moft
    layer, kind = ops.target
    geometry = geometry_statistics(context, ops.target, ops.ids, moft)
    scan_rows = ops.rows
    n_geoms = geometry.count
    index_cached = (layer, kind, frozenset(ops.ids)) in context._grid_cache

    costs: Dict[str, float] = {}
    if n_geoms == 0:
        # Empty geometric answer: every strategy degenerates to "return
        # the empty set".  Keep the serial label with zero cost.
        costs["serial"] = 0.0
        costs["grid"] = 0.0
    else:
        costs["serial"] = model.scan_cost(
            scan_rows, n_geoms, geometry.coverage, indexed=False
        )
        costs["grid"] = model.scan_cost(
            scan_rows,
            n_geoms,
            geometry.coverage,
            indexed=True,
            index_cached=index_cached,
        )

    shard_count: Optional[int] = None
    shard_backend: Optional[str] = None
    if executor is not None and n_geoms:
        shard_backend, shard_count = executor.backend.name, executor.n_shards
        # (A restricted scan rides on the shards of the whole table.)
        costs["sharded"] = model.sharded_cost(
            costs["grid"], shard_backend, shard_count, len(moft),
            resident=executor.holds_shards(moft),
        )

    sliver_rows = 0
    if ops.store is not None:
        sliver_rows = ops.sliver_rows
        costs["preagg"] = model.preagg_cost(
            ops.run[1] - ops.run[0] + 1, n_geoms, sliver_rows,
            geometry.coverage,
        )

    if force_strategy is not None:
        if force_strategy not in STRATEGIES:
            raise EvaluationError(
                f"unknown strategy {force_strategy!r}; "
                f"expected one of {STRATEGIES}"
            )
        if force_strategy not in costs:
            raise EvaluationError(
                f"strategy {force_strategy!r} is not applicable here "
                f"(candidates: {sorted(costs)})"
            )
        chosen = force_strategy
    else:
        chosen = min(costs, key=lambda name: costs[name])

    if ops.instants is not None:
        restriction = f"instants={len(ops.instants)}"
    elif ops.window is not None:
        restriction = f"window=[{ops.window[0]}, {ops.window[1]}]"
    else:
        restriction = "window=full"
    scan_detail = f"moft={moft.name}, {restriction}, geoms={n_geoms}"

    def scan(op: str, priced: str, extra: str = "") -> PlanNode:
        return PlanNode(
            op, scan_detail + extra, est_rows=scan_rows,
            est_cost=costs[priced],
        )

    if chosen == "serial":
        body = scan("SerialScan", "serial")
    elif chosen == "grid":
        body = scan(
            "GridScan", "grid",
            f", coverage={geometry.coverage:.3f}, "
            f"index_cached={index_cached}",
        )
    elif chosen == "sharded":
        body = PlanNode(
            "ShardFanout",
            f"backend={shard_backend}, shards={shard_count}",
            est_rows=scan_rows,
            est_cost=costs["sharded"],
            children=(scan("GridScan", "grid", ", per_shard"),),
        )
    else:  # preagg
        children: Tuple[PlanNode, ...] = ()
        if sliver_rows:
            children = (
                PlanNode(
                    "SliverScan",
                    f"moft={moft.name}, geoms={n_geoms}",
                    est_rows=sliver_rows,
                    est_cost=model.scan_cost(
                        sliver_rows, n_geoms, geometry.coverage,
                        indexed=True,
                    ),
                ),
            )
        body = PlanNode(
            "PreAggLookup",
            f"store={ops.store.name}, run={ops.run[0]}..{ops.run[1]}, "
            f"granules={ops.run[1] - ops.run[0] + 1}",
            est_rows=sliver_rows,
            est_cost=costs["preagg"],
            children=children,
        )
    root = PlanNode(
        op="Aggregate",
        detail=f"{label}, strategy={chosen}",
        est_rows=1,
        est_cost=costs[chosen],
        children=front + (body,),
    )
    alternatives = tuple(
        sorted(
            ((name, cost) for name, cost in costs.items() if name != chosen),
            key=lambda pair: pair[1],
        )
    )
    return QueryPlan(
        strategy=chosen,
        root=root,
        est_cost=costs[chosen],
        alternatives=alternatives,
        geometry=geometry,
        shard_count=shard_count if chosen == "sharded" else None,
        shard_backend=shard_backend if chosen == "sharded" else None,
        operands=ops,
    )


def plan_count_objects_through(
    context: EvaluationContext,
    target: Tuple[str, str],
    constraints: Sequence[Tuple[str, Tuple[str, str]]],
    moft_name: str = "FM",
    window: Optional[Tuple[float, float]] = None,
    executor: Optional[ShardedExecutor] = None,
    cost_model: Optional[CostModel] = None,
    force_strategy: Optional[str] = None,
) -> QueryPlan:
    """Resolve the query once and return its cheapest strategy as a plan.

    The geometric subquery, the window validation and the store match
    happen here (:func:`~repro.query.evaluator.resolve_through`) and the
    plan keeps the operands, so executing it repeats none of that.  See
    :func:`plan_through` for the candidates and ``force_strategy``.
    """
    ops = resolve_through(
        context, target, constraints, moft_name, window=window
    )
    geo_node = PlanNode(
        op="GeometricSubquery",
        detail=(
            f"target={target[0]}:{target[1]}, "
            f"constraints={len(constraints)}"
        ),
        est_rows=len(ops.ids),
        actual_rows=len(ops.ids),
        actual_seconds=ops.geosub_seconds,
    )
    return plan_through(
        ops, executor, cost_model, force_strategy, front=(geo_node,)
    )


# ---------------------------------------------------------------------------
# Execution with actuals
# ---------------------------------------------------------------------------

#: The scan-leaf options that tell the two unsharded scans apart.
_UNINDEXED = {"use_index": False, "vectorized": False}


def run_plan(
    plan: QueryPlan,
    executor: Optional[ShardedExecutor] = None,
) -> Set[Hashable]:
    """Execute a through plan from its operands; fill in the actuals.

    One :func:`~repro.query.evaluator.execute_through` call: the store
    read (plus a serial sliver scan) for ``preagg``, the scan leaf for
    ``serial`` / ``grid``, the leaf fanned out over ``executor`` for
    ``sharded``.  Returns the matched objects.

    The actuals are the figures of that one execution (its own stats
    object), not a bracket around a shared observer.  A fan-out node
    says how many shards did run: the executor's count, less the empty
    shards, which are never shipped.
    """
    strategy = plan.strategy
    if strategy == "sharded" and executor is None:
        raise EvaluationError(
            "plan chose the sharded strategy but no executor was "
            "passed to execute it"
        )
    started = time.perf_counter()
    run = execute_through(
        plan.operands,
        strategy == "preagg",
        executor if strategy == "sharded" else None,
        **(_UNINDEXED if strategy == "serial" else {}),
    )
    plan.executed = True
    plan.result_count = len(run.matched)
    plan.root.actual_rows = plan.result_count
    plan.root.actual_seconds = time.perf_counter() - started
    for node in plan.root.walk():
        if node.op in ("SerialScan", "GridScan", "SliverScan"):
            node.actual_rows = run.stats.count("scan_rows")
            node.actual_seconds = run.stats.seconds(
                EvaluationStats.SCAN_STAGE
            )
        elif node.op == "ShardFanout":
            node.actual_rows = run.stats.count("scan_rows")
            node.actual_seconds = run.scan_seconds
            if run.stats.count("shard_count"):
                plan.shard_count = run.stats.count("shard_count")
                node.detail = (
                    f"backend={plan.shard_backend}, shards={plan.shard_count}"
                )
        elif node.op == "PreAggLookup":
            node.actual_rows = plan.operands.sliver_rows
            node.actual_seconds = run.lookup_seconds
    return run.matched


def execute_plan(
    plan: QueryPlan,
    context: EvaluationContext,
    target: Tuple[str, str],
    constraints: Sequence[Tuple[str, Tuple[str, str]]],
    moft_name: str = "FM",
    window: Optional[Tuple[float, float]] = None,
    executor: Optional[ShardedExecutor] = None,
) -> int:
    """Run the plan's chosen strategy (:func:`run_plan`); return the count.

    The plan carries its operands: the query arguments (kept for callers
    that pass the same ones to planning and execution) are not read
    again.  ``executor`` is needed (only) by a ``sharded`` plan.
    """
    return len(run_plan(plan, executor))


def planned_count_objects_through(
    context: EvaluationContext,
    target: Tuple[str, str],
    constraints: Sequence[Tuple[str, Tuple[str, str]]],
    moft_name: str = "FM",
    window: Optional[Tuple[float, float]] = None,
    executor: Optional[ShardedExecutor] = None,
    cost_model: Optional[CostModel] = None,
    force_strategy: Optional[str] = None,
) -> Tuple[int, QueryPlan]:
    """Plan, execute the chosen strategy, return ``(count, plan)``."""
    plan = plan_count_objects_through(
        context, target, constraints, moft_name=moft_name, window=window,
        executor=executor, cost_model=cost_model,
        force_strategy=force_strategy,
    )
    return len(run_plan(plan, executor)), plan


def explain(
    context: EvaluationContext,
    target: Tuple[str, str],
    constraints: Sequence[Tuple[str, Tuple[str, str]]],
    moft_name: str = "FM",
    window: Optional[Tuple[float, float]] = None,
    executor: Optional[ShardedExecutor] = None,
    cost_model: Optional[CostModel] = None,
    analyze: bool = False,
) -> str:
    """Render the chosen plan; with ``analyze`` execute it for actuals."""
    plan = plan_count_objects_through(
        context, target, constraints, moft_name=moft_name, window=window,
        executor=executor, cost_model=cost_model,
    )
    if analyze:
        run_plan(plan, executor)
    return plan.render()


# ---------------------------------------------------------------------------
# POI aggregates
# ---------------------------------------------------------------------------


def plan_poi_aggregate(
    context: EvaluationContext,
    layer: str,
    granule_level: str,
    min_dwell: float = 0.0,
    moft_name: str = "FM",
    measure: str = "visits",
    k: Optional[int] = None,
    cost_model: Optional[CostModel] = None,
    force_strategy: Optional[str] = None,
    executor: Optional[ShardedExecutor] = None,
) -> QueryPlan:
    """Resolve a POI aggregate once, price its strategies, pick the cheapest.

    The candidate space mirrors :func:`plan_through` with the POI
    twists: the scan is a per-object *segmentation* pass (every row
    against every disc — no grid pruning, stops are global per
    trajectory), ``sharded`` is a candidate only when ``executor`` is
    given — priced with its backend, its shard count and whether it
    holds the table's shards already — and a registered fresh
    :class:`~repro.poi.PoiVisitStore` covering the (layer, granule,
    min_dwell) key reduces the query to a cell read.
    The plan keeps what :func:`~repro.query.poi.resolve_poi` resolved
    (:class:`~repro.query.poi.PoiOperands`) for :func:`execute_poi_plan`.
    """
    ops = resolve_poi(
        context, layer, granule_level, min_dwell, moft_name, measure, k,
        force_strategy,
    )
    model = cost_model if cost_model is not None else CostModel()
    table = table_statistics(ops.moft)
    n_pois = len(ops.pois)
    n_granules = len(context.time.granules(granule_level).members)
    detail = (
        f"{layer}/{granule_level} measure={measure}"
        + (f" k={k}" if k is not None else "")
        + (f" min_dwell={min_dwell}" if min_dwell else "")
    )

    serial_cost = model.scan_cost(
        table.rows, n_pois, coverage=1.0, indexed=False
    )
    candidates: List[Tuple[str, float]] = [("serial", serial_cost)]
    backend = n_shards = None
    if executor is not None:
        backend, n_shards = executor.backend.name, executor.n_shards
        candidates.append((
            "sharded",
            model.sharded_cost(
                serial_cost, backend, n_shards, table.rows,
                resident=executor.holds_shards(ops.moft),
            ),
        ))
    if ops.store is not None:
        candidates.append(
            ("preagg", model.preagg_cost(n_granules, n_pois, 0, 1.0))
        )

    by_name = dict(candidates)
    if force_strategy is not None:
        # (resolve_poi refused a preagg no store serves.)
        if force_strategy not in by_name:
            raise no_executor_error()
        chosen, chosen_cost = force_strategy, by_name[force_strategy]
    else:
        chosen, chosen_cost = min(candidates, key=lambda c: (c[1], c[0]))

    segment_node = PlanNode(
        "StopSegmentScan",
        f"{table.name} x {n_pois} discs",
        est_rows=table.rows,
        est_cost=serial_cost,
    )
    if chosen == "preagg":
        body = PlanNode(
            "PoiCellRead",
            f"store granules={n_granules} pois={n_pois}",
            est_rows=n_granules * n_pois,
            est_cost=chosen_cost,
        )
    elif chosen == "sharded":
        body = PlanNode(
            "ShardedSegmentScan",
            f"{backend} x{n_shards} + merge",
            est_rows=table.rows,
            est_cost=chosen_cost,
            children=(segment_node,),
        )
    else:
        body = segment_node
    root = PlanNode(
        "PoiAggregate",
        detail,
        est_rows=n_granules * n_pois,
        est_cost=chosen_cost,
        children=(body,),
    )
    rejected = tuple(
        (name, cost) for name, cost in candidates if name != chosen
    )
    return QueryPlan(
        strategy=chosen,
        root=root,
        est_cost=chosen_cost,
        alternatives=rejected,
        geometry=GeometryStatistics(n_pois, 1.0),
        shard_count=n_shards if chosen == "sharded" else None,
        shard_backend=backend if chosen == "sharded" else None,
        operands=ops,
    )


def execute_poi_plan(
    plan: QueryPlan,
    context: EvaluationContext,
    layer: str,
    granule_level: str,
    min_dwell: float = 0.0,
    moft_name: str = "FM",
    measure: str = "visits",
    k: Optional[int] = None,
    executor: Optional[ShardedExecutor] = None,
):
    """Execute a POI plan's chosen strategy; returns the aggregate dict.

    One :func:`~repro.query.poi.execute_poi` call on the plan's operands,
    then the measure read.  The operands carry the measure and ``k``:
    the query arguments (kept for callers that pass the same ones to
    planning and execution) are not read again.  ``executor`` is needed
    (only) by a ``sharded`` plan.
    """
    ops = plan.operands
    store = execute_poi(ops, plan.strategy, executor)
    if ops.measure == "visits":
        result = store.visit_counts()
    elif ops.measure == "visitors":
        result = store.distinct_visitors()
    elif ops.measure == "dwell":
        result = store.dwell_times()
    else:
        result = store.topk(ops.k)
    plan.executed = True
    plan.result_count = len(result)
    return result


__all__ = [
    "STRATEGIES",
    "CostModel",
    "GeometryStatistics",
    "PlanNode",
    "QueryPlan",
    "TableStatistics",
    "execute_plan",
    "execute_poi_plan",
    "explain",
    "geometry_statistics",
    "plan_count_objects_through",
    "plan_poi_aggregate",
    "plan_through",
    "planned_count_objects_through",
    "run_plan",
    "table_statistics",
]
