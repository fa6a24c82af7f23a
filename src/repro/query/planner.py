"""Cost-based planning of the Section 5 pipeline, with EXPLAIN.

The repo grew four ways to answer "count the objects passing through
these geometries over this window": the serial scan (the paper's
baseline), the grid-indexed scan, the sharded fan-out
(:class:`~repro.parallel.ShardedExecutor`) and the materialized
pre-aggregation route with its sliver hybrid (:mod:`repro.preagg`).
Choosing between them was ad hoc — preagg routes when it can, sharding
happens when the caller constructed an executor.  This module makes the
choice a *costed* decision:

* a **statistics layer** — :func:`table_statistics` (MOFT row/object
  counts and time extent), :func:`geometry_statistics` (per-answer
  bbox-coverage selectivity of the queried geometries against the
  table's spatial extent) and the store-side figures exposed by
  :meth:`~repro.preagg.PreAggStore.stats` /
  :meth:`~repro.preagg.PreAggStore.window_coverage`;

* a **cost model** (:class:`CostModel`) pricing every candidate
  strategy in one abstract unit (≈ one geometry intersection check):
  rows×geometries for the serial scan, probe + coverage-discounted
  checks for the indexed scan, scan/speedup + per-task overhead (+
  per-row pickling for processes) for the sharded fan-out, and granule
  reads + residual sliver scan for the pre-agg hybrid;

* an **EXPLAIN surface** — :func:`plan_count_objects_through` returns a
  :class:`QueryPlan` tree, :func:`planned_count_objects_through`
  executes the chosen strategy (answers are strategy-independent; the
  differential suite in ``tests/parallel`` asserts it), and
  :func:`explain` renders the tree with estimated vs. *actual* rows and
  seconds pulled from the :mod:`repro.obs` counters and stage timers
  (``scan_rows``, ``segment_scan``, ``preagg_lookup``, …).

The planner never changes execution semantics: every strategy funnels
through :func:`repro.query.evaluator.objects_through` with the flags
that select it, so a planner-picked path is bit-identical to calling
the evaluator directly.  The cost constants are calibration knobs, not
truth — the invariant the tests pin is that *whatever* the constants,
the chosen strategy returns the same answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
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
    ShardedTrajectoryExecutor,
    geometric_subquery,
    validated_window,
)
from repro.query.region import EvaluationContext


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
    """Collect :class:`TableStatistics` from a MOFT (cheap, columnar)."""
    if len(moft) == 0:
        return TableStatistics(moft.name, 0, 0, None, None)
    tmin, tmax = moft.time_range()
    return TableStatistics(
        moft.name, len(moft), len(moft.objects()), float(tmin), float(tmax)
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
    """Estimate answer-geometry selectivity against the MOFT's extent."""
    if not ids:
        return GeometryStatistics(0, 0.0)
    if len(moft) == 0:
        return GeometryStatistics(len(ids), 1.0)
    layer, kind = target
    elements = context.gis.layer(layer).elements(kind)
    _, x, y = moft.as_arrays()
    extent = (float(x.max()) - float(x.min())) * (
        float(y.max()) - float(y.min())
    )
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
    #: Fixed per-shard-task overhead by backend.
    serial_task_overhead: float = 2.0
    thread_task_overhead: float = 400.0
    process_task_overhead: float = 20000.0
    #: Shipping one MOFT row across the process boundary (pickling).
    process_row_ship_cost: float = 0.5
    #: Effective speedup of the threads backend — the trajectory scan is
    #: pure Python, so the GIL caps parallelism just above 1.
    thread_speedup: float = 1.15
    #: Don't cut shards smaller than this many rows.
    min_rows_per_shard: int = 256

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
        self, scan: float, backend: str, n_shards: int, rows: int
    ) -> float:
        """Cost of fanning a scan of cost ``scan`` over ``n_shards``."""
        if backend == "processes":
            speedup = float(max(1, n_shards))
            overhead = (
                n_shards * self.process_task_overhead
                + rows * self.process_row_ship_cost
            )
        elif backend == "threads":
            speedup = self.thread_speedup
            overhead = n_shards * self.thread_task_overhead
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

    def choose_shard_count(self, rows: int, cpus: int) -> int:
        """Shard count balancing per-task overhead against parallelism."""
        by_rows = max(1, rows // max(1, self.min_rows_per_shard))
        return max(1, min(max(1, cpus), by_rows))


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
    """A costed, renderable plan for one through-style aggregate."""

    strategy: str
    root: PlanNode
    est_cost: float
    alternatives: Tuple[Tuple[str, float], ...]
    table: TableStatistics
    geometry: GeometryStatistics
    shard_count: Optional[int] = None
    shard_backend: Optional[str] = None
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


def _available_cpus() -> int:
    from repro.parallel.backends import available_cpus

    return available_cpus()


class _ShardHint:
    """Adapter forwarding a planner-chosen shard count to an executor."""

    def __init__(
        self, executor: ShardedTrajectoryExecutor, n_shards: int
    ) -> None:
        self.executor = executor
        self.n_shards = n_shards

    def matching_objects(self, counter, moft, stats=None):
        return self.executor.matching_objects(
            counter, moft, stats, n_shards=self.n_shards
        )


def plan_count_objects_through(
    context: EvaluationContext,
    target: Tuple[str, str],
    constraints: Sequence[Tuple[str, Tuple[str, str]]],
    moft_name: str = "FM",
    window: Optional[Tuple[float, float]] = None,
    executor: Optional[ShardedTrajectoryExecutor] = None,
    cost_model: Optional[CostModel] = None,
    force_strategy: Optional[str] = None,
) -> QueryPlan:
    """Price every applicable strategy and return the cheapest as a plan.

    Candidates: ``serial`` (unindexed scan), ``grid`` (indexed scan,
    always applicable), ``sharded`` (only when ``executor`` is given —
    the plan records the chosen shard count and the executor's backend)
    and ``preagg`` (only when a registered fresh store covers the
    queried geometries and the window holds a whole granule).

    The geometric subquery runs *during planning* — its answer drives
    geometry selectivity and pre-agg matching, it is cheap against the
    overlay, and its ids are exactly what execution would recompute.

    ``force_strategy`` bypasses the cost comparison (used by the
    differential tests to drive every strategy over the same query);
    forcing an inapplicable strategy raises :class:`EvaluationError`.
    """
    model = cost_model if cost_model is not None else CostModel()
    moft = context.moft(moft_name)
    window = validated_window(moft, window)
    ids = geometric_subquery(context, target, constraints)
    table = table_statistics(moft)
    geometry = geometry_statistics(context, target, ids, moft)

    if window is None:
        scan_rows = table.rows
    else:
        t, _, _ = moft.as_arrays()
        scan_rows = int(((t >= window[0]) & (t <= window[1])).sum())
    layer, kind = target
    n_geoms = geometry.count
    index_cached = (layer, kind, frozenset(ids)) in context._grid_cache

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
        shard_backend = getattr(
            getattr(executor, "backend", None), "name", "serial"
        )
        shard_count = model.choose_shard_count(scan_rows, _available_cpus())
        costs["sharded"] = model.sharded_cost(
            costs["grid"], shard_backend, shard_count, scan_rows
        )

    preagg_detail: Optional[Tuple[str, Tuple[int, int], int]] = None
    if n_geoms:
        store = context.preagg_for(moft, layer, kind, ids)
        if store is not None and not store.is_stale():
            start, end = (window if window is not None else (None, None))
            coverage = store.window_coverage(start, end)
            if coverage.covered:
                run = coverage.run
                granules = run[1] - run[0] + 1
                costs["preagg"] = model.preagg_cost(
                    granules, n_geoms, coverage.sliver_rows,
                    geometry.coverage,
                )
                preagg_detail = (store.name, run, coverage.sliver_rows)

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

    geo_node = PlanNode(
        op="GeometricSubquery",
        detail=(
            f"target={layer}:{kind}, constraints={len(constraints)}"
        ),
        est_rows=n_geoms,
    )
    window_label = (
        "window=full" if window is None else f"window=[{window[0]}, {window[1]}]"
    )
    if chosen in ("serial", "grid"):
        scan_node = PlanNode(
            op="SerialScan" if chosen == "serial" else "GridScan",
            detail=(
                f"moft={moft_name}, {window_label}, geoms={n_geoms}"
                + ("" if chosen == "serial" else
                   f", coverage={geometry.coverage:.3f}"
                   f", index_cached={index_cached}")
            ),
            est_rows=scan_rows,
            est_cost=costs[chosen],
        )
        body = scan_node
    elif chosen == "sharded":
        scan_node = PlanNode(
            op="GridScan",
            detail=(
                f"moft={moft_name}, {window_label}, geoms={n_geoms}, "
                f"per_shard"
            ),
            est_rows=scan_rows,
            est_cost=costs["grid"],
        )
        body = PlanNode(
            op="ShardFanout",
            detail=f"backend={shard_backend}, shards={shard_count}",
            est_rows=scan_rows,
            est_cost=costs["sharded"],
            children=(scan_node,),
        )
    else:  # preagg
        assert preagg_detail is not None
        store_name, run, sliver_rows = preagg_detail
        children: Tuple[PlanNode, ...] = ()
        if sliver_rows:
            children = (
                PlanNode(
                    op="SliverScan",
                    detail=f"moft={moft_name}, geoms={n_geoms}",
                    est_rows=sliver_rows,
                    est_cost=model.scan_cost(
                        sliver_rows, n_geoms, geometry.coverage,
                        indexed=True,
                    ),
                ),
            )
        body = PlanNode(
            op="PreAggLookup",
            detail=(
                f"store={store_name}, run={run[0]}..{run[1]}, "
                f"granules={run[1] - run[0] + 1}"
            ),
            est_rows=sliver_rows,
            est_cost=costs["preagg"],
            children=children,
        )
    root = PlanNode(
        op="Aggregate",
        detail=f"count_objects_through, strategy={chosen}",
        est_rows=1,
        est_cost=costs[chosen],
        children=(geo_node, body),
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
        table=table,
        geometry=geometry,
        shard_count=shard_count if chosen == "sharded" else None,
        shard_backend=shard_backend if chosen == "sharded" else None,
    )


# ---------------------------------------------------------------------------
# Execution with actuals
# ---------------------------------------------------------------------------


def execute_plan(
    plan: QueryPlan,
    context: EvaluationContext,
    target: Tuple[str, str],
    constraints: Sequence[Tuple[str, Tuple[str, str]]],
    moft_name: str = "FM",
    window: Optional[Tuple[float, float]] = None,
    executor: Optional[ShardedTrajectoryExecutor] = None,
) -> int:
    """Run the plan's chosen strategy; fill the tree with actuals.

    Every strategy funnels through
    :func:`repro.query.evaluator.objects_through` with the flags that
    select it, so the answer is identical whichever strategy the cost
    model picked — the planner only chooses *how*, never *what*.
    Actual rows come from the ``scan_rows`` / ``sliver_scan_rows``
    counters, actual seconds from the ``segment_scan`` /
    ``geometric_subquery`` / ``preagg_lookup`` stage timers, bracketed
    via :meth:`~repro.obs.PipelineStats.snapshot` /
    :meth:`~repro.obs.PipelineStats.since` on the context observer.
    """
    from repro.query.evaluator import objects_through

    run_stats = EvaluationStats()
    before = context.obs.snapshot()
    started = time.perf_counter()
    strategy = plan.strategy
    if strategy == "preagg":
        matched = objects_through(
            context, target, constraints, moft_name=moft_name,
            stats=run_stats, window=window, use_preagg=True,
        )
    elif strategy == "sharded":
        if executor is None:
            raise EvaluationError(
                "plan chose the sharded strategy but no executor was "
                "passed to execute it"
            )
        hinted = (
            _ShardHint(executor, plan.shard_count)
            if plan.shard_count is not None
            else executor
        )
        matched = objects_through(
            context, target, constraints, moft_name=moft_name,
            stats=run_stats, window=window, use_preagg=False,
            executor=hinted,
        )
    elif strategy == "serial":
        matched = objects_through(
            context, target, constraints, moft_name=moft_name,
            stats=run_stats, window=window, use_preagg=False,
            use_index=False, vectorized=False,
        )
    else:  # grid
        matched = objects_through(
            context, target, constraints, moft_name=moft_name,
            stats=run_stats, window=window, use_preagg=False,
        )
    elapsed = time.perf_counter() - started
    obs_delta = context.obs.since(before)
    flat = run_stats.as_dict()

    count = len(matched)
    plan.executed = True
    plan.result_count = count
    plan.root.actual_rows = count
    plan.root.actual_seconds = elapsed
    geo_node = plan.root.find("GeometricSubquery")
    if geo_node is not None:
        geo_node.actual_seconds = flat.get("geometric_subquery_seconds", 0.0)
    for op in ("SerialScan", "GridScan"):
        node = plan.root.find(op)
        if node is not None and strategy != "preagg":
            node.actual_rows = int(flat.get("scan_rows", 0))
            node.actual_seconds = flat.get("elapsed_seconds", 0.0)
    fanout = plan.root.find("ShardFanout")
    if fanout is not None:
        fanout.actual_rows = int(flat.get("scan_rows", 0))
        fanout.actual_seconds = obs_delta.get("shard_fanout_seconds", 0.0)
    lookup = plan.root.find("PreAggLookup")
    if lookup is not None:
        lookup.actual_rows = int(flat.get("sliver_scan_rows", 0))
        lookup.actual_seconds = obs_delta.get("preagg_lookup_seconds", 0.0)
    sliver = plan.root.find("SliverScan")
    if sliver is not None:
        sliver.actual_rows = int(flat.get("scan_rows", 0))
        sliver.actual_seconds = flat.get("elapsed_seconds", 0.0)
    return count


def planned_count_objects_through(
    context: EvaluationContext,
    target: Tuple[str, str],
    constraints: Sequence[Tuple[str, Tuple[str, str]]],
    moft_name: str = "FM",
    window: Optional[Tuple[float, float]] = None,
    executor: Optional[ShardedTrajectoryExecutor] = None,
    cost_model: Optional[CostModel] = None,
    force_strategy: Optional[str] = None,
) -> Tuple[int, QueryPlan]:
    """Plan, execute the chosen strategy, return ``(count, plan)``."""
    plan = plan_count_objects_through(
        context, target, constraints, moft_name=moft_name, window=window,
        executor=executor, cost_model=cost_model,
        force_strategy=force_strategy,
    )
    count = execute_plan(
        plan, context, target, constraints, moft_name=moft_name,
        window=window, executor=executor,
    )
    return count, plan


def explain(
    context: EvaluationContext,
    target: Tuple[str, str],
    constraints: Sequence[Tuple[str, Tuple[str, str]]],
    moft_name: str = "FM",
    window: Optional[Tuple[float, float]] = None,
    executor: Optional[ShardedTrajectoryExecutor] = None,
    cost_model: Optional[CostModel] = None,
    analyze: bool = False,
) -> str:
    """Render the chosen plan; with ``analyze`` execute it for actuals."""
    plan = plan_count_objects_through(
        context, target, constraints, moft_name=moft_name, window=window,
        executor=executor, cost_model=cost_model,
    )
    if analyze:
        execute_plan(
            plan, context, target, constraints, moft_name=moft_name,
            window=window, executor=executor,
        )
    return plan.render()


# ---------------------------------------------------------------------------
# POI aggregates
# ---------------------------------------------------------------------------

#: The strategies the planner prices for POI aggregate queries.
POI_STRATEGIES = ("serial", "sharded", "preagg")


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
) -> QueryPlan:
    """Price the POI aggregate strategies and pick the cheapest.

    The candidate space mirrors :func:`plan_count_objects_through` with
    the POI twists: the scan is a per-object *segmentation* pass (every
    row against every disc — no grid pruning, stops are global per
    trajectory), sharding splits by objects on the threads backend, and
    a registered fresh :class:`~repro.poi.PoiVisitStore` covering the
    (layer, granule, min_dwell) key reduces the query to a cell read.
    """
    from repro.query.poi import resolve_pois

    if force_strategy is not None and force_strategy not in POI_STRATEGIES:
        raise EvaluationError(
            f"unknown POI strategy {force_strategy!r}; expected one of "
            f"{POI_STRATEGIES}"
        )
    model = cost_model if cost_model is not None else CostModel()
    pois = resolve_pois(context, layer)
    moft = context.moft(moft_name)
    table = table_statistics(moft)
    geometry = GeometryStatistics(len(pois), 1.0)
    partition = context.time.granules(granule_level)
    n_granules = len(partition.members)
    detail = (
        f"{layer}/{granule_level} measure={measure}"
        + (f" k={k}" if k is not None else "")
        + (f" min_dwell={min_dwell}" if min_dwell else "")
    )

    serial_cost = model.scan_cost(
        table.rows, len(pois), coverage=1.0, indexed=False
    )
    cpus = _available_cpus()
    n_shards = min(
        model.choose_shard_count(table.rows, cpus), max(1, table.objects)
    )
    sharded_cost = model.sharded_cost(
        serial_cost, "threads", n_shards, table.rows
    )
    candidates: List[Tuple[str, float]] = [
        ("serial", serial_cost),
        ("sharded", sharded_cost),
    ]
    store = context.poi_store_for(
        moft, layer, granule_level, min_dwell, pois
    )
    if store is not None and not store.is_stale():
        candidates.append(
            ("preagg", model.preagg_cost(n_granules, len(pois), 0, 1.0))
        )

    by_name = dict(candidates)
    if force_strategy is not None:
        if force_strategy not in by_name:
            raise EvaluationError(
                f"strategy {force_strategy!r} unavailable: no fresh POI "
                "store covers this query"
            )
        chosen, chosen_cost = force_strategy, by_name[force_strategy]
    else:
        chosen, chosen_cost = min(candidates, key=lambda c: (c[1], c[0]))

    segment_node = PlanNode(
        "StopSegmentScan",
        f"{table.name} x {len(pois)} discs",
        est_rows=table.rows,
        est_cost=serial_cost,
    )
    if chosen == "preagg":
        body = PlanNode(
            "PoiCellRead",
            f"store granules={n_granules} pois={len(pois)}",
            est_rows=n_granules * len(pois),
            est_cost=chosen_cost,
        )
    elif chosen == "sharded":
        body = PlanNode(
            "ShardedSegmentScan",
            f"threads x{n_shards} + merge",
            est_rows=table.rows,
            est_cost=chosen_cost,
            children=(segment_node,),
        )
    else:
        body = segment_node
    root = PlanNode(
        "PoiAggregate",
        detail,
        est_rows=n_granules * len(pois),
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
        table=table,
        geometry=geometry,
        shard_count=n_shards if chosen == "sharded" else None,
        shard_backend="threads" if chosen == "sharded" else None,
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
):
    """Execute a POI plan's chosen strategy; returns the aggregate dict."""
    from repro.query import poi as poi_queries

    options = {
        "min_dwell": min_dwell,
        "moft_name": moft_name,
        "strategy": plan.strategy,
    }
    if plan.strategy == "sharded":
        options["shards"] = plan.shard_count or 1
        options["backend"] = "threads"
    if measure == "visits":
        result = poi_queries.poi_visit_counts(
            context, layer, granule_level, **options
        )
    elif measure == "visitors":
        result = poi_queries.poi_distinct_visitors(
            context, layer, granule_level, **options
        )
    elif measure == "dwell":
        result = poi_queries.poi_dwell_times(
            context, layer, granule_level, **options
        )
    elif measure == "topk":
        if k is None:
            raise EvaluationError("top-k POI aggregate needs k")
        result = poi_queries.poi_topk(
            context, layer, granule_level, k, **options
        )
    else:
        raise EvaluationError(f"unknown POI measure {measure!r}")
    plan.executed = True
    plan.result_count = len(result)
    return result


__all__ = [
    "POI_STRATEGIES",
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
    "planned_count_objects_through",
    "table_statistics",
]
