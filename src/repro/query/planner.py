"""Cost-based planning of the one leaf path, with EXPLAIN.

Every aggregate here — the through-count, the dwell total, the POI
measures — resolves to one :class:`~repro.query.evaluator.Leaf` and runs
through the one :func:`~repro.query.evaluator.execute`.  There are up to
four ways to run a leaf: the serial scan (the paper's baseline), the
grid-indexed scan, the sharded fan-out
(:class:`~repro.parallel.ShardedExecutor`) and the materialized
pre-aggregation route with its sliver hybrid (:mod:`repro.preagg`,
:mod:`repro.poi`).  This module makes the choice a *costed* decision —
for planned counts, the dwell total, POI measures, service specs and
Piet-QL alike — in one body, :func:`plan`, to which each kind supplies
only:

* its **cost terms**, priced by one :class:`CostModel` in one abstract
  unit (≈ one geometry intersection check): rows×geometries for the
  serial scan, probe + coverage-discounted checks for the indexed scan
  (:func:`geometry_statistics`: bbox-coverage selectivity of the answer
  geometries against the table's extent), scan/speedup + per-task
  overhead (+ a per-row charge for a table a process executor does not
  hold resident yet) for the fan-out, and granule reads + residual
  sliver scan for the store; a POI scan is a segmentation pass of every
  row against every disc;

* its **node labels** — the strategy subtree under the root.

A plan prices what its leaf already holds: the leaf's restricted rows,
sliver and geometry statistics are derived once per prepared entry
(:meth:`~repro.query.evaluator.Leaf.memo`), and so is the price itself,
held per *live key* — the fan-out's backend, shard count and residency,
whether the answer's index is cached, and the cost model — so a
repeated query under the same key prices nothing.

:func:`plan` returns a :class:`QueryPlan` holding the leaf;
:meth:`QueryPlan.execute` runs it through the one executor and keeps
that run's record (:meth:`QueryPlan.record`).  The plan tree is built
when first read, from the held price, and takes every node's *actual*
rows and seconds from the record; :meth:`QueryPlan.render` is the
EXPLAIN text.  :func:`plan_count_objects_through` resolves and plans a
through-count; ``execute_plan``, ``plan_poi_aggregate`` and
``execute_poi_plan`` are kept, a few lines each, for the benchmark
harness that calls them.

The planner chooses *how* the one executor runs, never *what* it
answers (``tests/parallel`` pins every strategy to the serial scan).
The cost constants are calibration knobs, not truth: *whatever* the
constants, the chosen strategy returns the same answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.geometry.overlay import geometry_bbox
from repro.mo.moft import MOFT
from repro.query.evaluator import (
    KINDS,
    STRATEGIES,
    Leaf,
    Run,
    execute,
    refuse,
    resolve_through,
)
from repro.query.poi import resolve_poi
from repro.query.region import EvaluationContext

if TYPE_CHECKING:
    from repro.parallel.executor import ShardedExecutor


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


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


#: The model :func:`plan` prices with when none is given.
DEFAULT_COSTS = CostModel()


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


class QueryPlan:
    """A costed, renderable plan for one leaf.

    ``leaf`` is what resolution built and execution runs on: executing
    a plan (:meth:`execute`) resolves nothing again.  The tree,
    :attr:`root`, is built when something first reads it (:meth:`render`
    does): :func:`plan` hands ``grow``, which builds it from what the
    leaf was priced with, so a front-end that only reads
    :attr:`strategy` builds no node.  A front-end whose plan has no
    leaf hands its finished ``root`` instead (Piet-QL's own plans).
    """

    def __init__(
        self,
        strategy: str,
        root: Optional[PlanNode] = None,
        est_cost: float = 0.0,
        alternatives: Tuple[Tuple[str, float], ...] = (),
        geometry: Optional[GeometryStatistics] = None,
        shard_count: Optional[int] = None,
        shard_backend: Optional[str] = None,
        leaf: Optional[Leaf] = None,
        executed: bool = False,
        result_count: Optional[int] = None,
        grow: Optional[Callable[["QueryPlan"], PlanNode]] = None,
    ) -> None:
        self.strategy = strategy
        self.est_cost = est_cost
        self.alternatives = alternatives
        self.geometry = geometry
        self.shard_count = shard_count
        self.shard_backend = shard_backend
        self.leaf = leaf
        self.executed = executed
        self.result_count = result_count
        #: The run :meth:`record` took (None: not executed here).
        self.run: Optional[Run] = None
        self._root, self._grow = root, grow

    @property
    def root(self) -> PlanNode:
        """The plan tree, built at the first read; it carries the
        actuals of the recorded run."""
        if self._root is None:
            self._root = self._grow(self)
            if self.run is not None:
                self._take_actuals()
        return self._root

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

    def execute(self, executor: Optional[ShardedExecutor] = None) -> Run:
        """Run the chosen strategy on the plan's leaf — the one
        :func:`~repro.query.evaluator.execute`, handed ``executor`` only
        for ``sharded`` — and :meth:`record` the run."""
        run = execute(
            self.leaf, self.strategy,
            executor if self.strategy == "sharded" else None,
        )
        self.record(run)
        return run

    def record(self, run: Run) -> None:
        """Keep one run record, whose actuals the tree takes (now, or
        when it is built): the root takes the answer's rows and the
        run's seconds, every other node the part of the run it names
        (:data:`PARTS`), and a fan-out says how many shards did run —
        the executor's count, less the empty shards, which are never
        shipped."""
        self.executed = True
        self.result_count = run.rows
        self.run = run
        if self.strategy == "sharded" and run.shards:
            self.shard_count = run.shards
        if self._root is not None:
            self._take_actuals()

    def _take_actuals(self) -> None:
        run = self.run
        self._root.actual_rows = run.rows
        self._root.actual_seconds = run.seconds
        for node in self._root.walk():
            part = PARTS.get(node.op)
            if part is None:
                continue
            node.actual_rows, node.actual_seconds = run.actuals(part)
            if part == "fanout" and run.shards:
                node.detail = _fanout_detail(
                    self.leaf, self.shard_backend, run.shards
                )


# ---------------------------------------------------------------------------
# Planning: one body, each kind's cost terms and node labels
# ---------------------------------------------------------------------------

#: The part of a run (:meth:`~repro.query.evaluator.Run.actuals`) each
#: node below an aggregate reports.
PARTS = {
    "SerialScan": "scan",
    "GridScan": "scan",
    "SliverScan": "scan",
    "StopSegmentScan": "scan",
    "ShardFanout": "fanout",
    "ShardedSegmentScan": "fanout",
    "PreAggLookup": "lookup",
    "PoiCellRead": "lookup",
}

#: What a fan-out is priced by: the executor's backend name, its shard
#: count and whether it holds the leaf's table (None: no executor).
_Fanout = Optional[Tuple[str, int, bool]]


class _Price(NamedTuple):
    """One leaf's price under one live key, held in the leaf's shared
    ``held`` (one slot: another key prices again and replaces it):
    every candidate's cost, the statistics, the figures the nodes show
    beside the costs, and the choice — strategy and ``rejected:``
    order — per ``force_strategy``, filled as plans ask for them.  Plain
    values only: an entry holds no context."""

    key: tuple
    costs: Dict[str, float]
    geometry: GeometryStatistics
    shows: Dict[str, object]
    choices: Dict[Optional[str], Tuple[str, Tuple[Tuple[str, float], ...]]]


def _fanout_detail(leaf: Leaf, backend: Optional[str], shards: int) -> str:
    if leaf.poi:
        return f"{backend} x{shards} + merge"
    return f"backend={backend}, shards={shards}"


def _geometric_terms(
    leaf: Leaf, fanout: _Fanout, model: CostModel, index_cached: bool
) -> tuple:
    """The ``through`` and ``dwell`` terms: rows x geometries for the
    serial scan, probe + coverage-discounted checks for the grid scan,
    the grid scan fanned out (only with an executor and a non-empty
    answer), and granule reads + residual sliver scan for the store."""
    context, moft = leaf.context, leaf.moft
    geometry = leaf.memo(
        "geometry",
        lambda: geometry_statistics(context, leaf.target, leaf.ids, moft),
    )
    rows, n_geoms = leaf.rows, geometry.count
    costs: Dict[str, float] = {}
    if n_geoms == 0:
        # Empty geometric answer: every strategy degenerates to "return
        # the empty set".  Keep the serial label with zero cost.
        costs["serial"] = 0.0
        costs["grid"] = 0.0
    else:
        costs["serial"] = model.scan_cost(
            rows, n_geoms, geometry.coverage, indexed=False
        )
        costs["grid"] = model.scan_cost(
            rows, n_geoms, geometry.coverage, indexed=True,
            index_cached=index_cached,
        )
    if fanout is not None and n_geoms:
        # (A restricted scan rides on the shards of the whole table.)
        backend, n_shards, resident = fanout
        costs["sharded"] = model.sharded_cost(
            costs["grid"], backend, n_shards, len(moft), resident=resident,
        )
    sliver_rows, sliver_cost = 0, None
    if leaf.store is not None:
        # (The dwell store clips its slivers itself: nothing to scan.)
        sliver_rows = leaf.sliver_rows if leaf.kind == "through" else 0
        costs["preagg"] = model.preagg_cost(
            leaf.granules[1] - leaf.granules[0] + 1, n_geoms, sliver_rows,
            geometry.coverage,
        )
        if sliver_rows:
            sliver_cost = model.scan_cost(
                sliver_rows, n_geoms, geometry.coverage, indexed=True
            )
    shows = dict(
        index_cached=index_cached, sliver_rows=sliver_rows,
        sliver_cost=sliver_cost,
    )
    return costs, geometry, shows


def _geometric_nodes(
    query: QueryPlan, price: _Price, label: str
) -> Tuple[PlanNode, PlanNode]:
    """The root and the strategy subtree of a ``through`` or ``dwell``
    plan."""
    leaf, chosen = query.leaf, query.strategy
    costs, geometry, shows = price.costs, price.geometry, price.shows
    rows, n_geoms, moft = leaf.rows, geometry.count, leaf.moft
    if leaf.instants is not None:
        restriction = f"instants={len(leaf.instants)}"
    elif leaf.window is not None:
        restriction = f"window=[{leaf.window[0]}, {leaf.window[1]}]"
    else:
        restriction = "window=full"
    scan_detail = f"moft={moft.name}, {restriction}, geoms={n_geoms}"

    def scan(op: str, priced: str, extra: str = "") -> PlanNode:
        return PlanNode(
            op, scan_detail + extra, est_rows=rows, est_cost=costs[priced]
        )

    if chosen == "serial":
        body = scan("SerialScan", "serial")
    elif chosen == "grid":
        body = scan(
            "GridScan", "grid",
            f", coverage={geometry.coverage:.3f}, "
            f"index_cached={shows['index_cached']}",
        )
    elif chosen == "sharded":
        body = PlanNode(
            "ShardFanout",
            _fanout_detail(leaf, query.shard_backend, query.shard_count),
            est_rows=rows,
            est_cost=costs["sharded"],
            children=(scan("GridScan", "grid", ", per_shard"),),
        )
    else:
        sliver_rows = shows["sliver_rows"]
        children: Tuple[PlanNode, ...] = ()
        if sliver_rows:
            children = (
                PlanNode(
                    "SliverScan",
                    f"moft={moft.name}, geoms={n_geoms}",
                    est_rows=sliver_rows,
                    est_cost=shows["sliver_cost"],
                ),
            )
        first, last = leaf.granules
        body = PlanNode(
            "PreAggLookup",
            f"store={leaf.store.name}, run={first}..{last}, "
            f"granules={last - first + 1}",
            est_rows=sliver_rows,
            est_cost=costs["preagg"],
            children=children,
        )
    root = PlanNode("Aggregate", f"{label}, strategy={chosen}", est_rows=1)
    return root, body


def _poi_terms(leaf: Leaf, fanout: _Fanout, model: CostModel) -> tuple:
    """The POI terms: the scan is a per-object *segmentation* pass
    (every row against every disc — no grid pruning, stops are global
    per trajectory), fanned out with an executor, and a fresh store
    reduces the query to a cell read."""
    rows, n_pois = leaf.rows, len(leaf.pois)
    n_granules = len(leaf.context.time.granules(leaf.granule_level).members)
    serial = model.scan_cost(rows, n_pois, coverage=1.0, indexed=False)
    costs = {"serial": serial}
    if fanout is not None:
        backend, n_shards, resident = fanout
        costs["sharded"] = model.sharded_cost(
            serial, backend, n_shards, rows, resident=resident,
        )
    if leaf.store is not None:
        costs["preagg"] = model.preagg_cost(n_granules, n_pois, 0, 1.0)
    return costs, GeometryStatistics(n_pois, 1.0), dict(n_granules=n_granules)


def _poi_nodes(
    query: QueryPlan, price: _Price, label: str
) -> Tuple[PlanNode, PlanNode]:
    """The root and the strategy subtree of a POI plan (its root names
    the layer and measure, not ``label``)."""
    leaf, chosen, costs = query.leaf, query.strategy, price.costs
    rows, n_pois = leaf.rows, len(leaf.pois)
    n_granules = price.shows["n_granules"]
    body = PlanNode(
        "StopSegmentScan",
        f"{leaf.moft.name} x {n_pois} discs",
        est_rows=rows,
        est_cost=costs["serial"],
    )
    if chosen == "preagg":
        body = PlanNode(
            "PoiCellRead",
            f"store granules={n_granules} pois={n_pois}",
            est_rows=n_granules * n_pois,
            est_cost=costs["preagg"],
        )
    elif chosen == "sharded":
        body = PlanNode(
            "ShardedSegmentScan",
            _fanout_detail(leaf, query.shard_backend, query.shard_count),
            est_rows=rows,
            est_cost=costs["sharded"],
            children=(body,),
        )
    detail = (
        f"{leaf.layer}/{leaf.granule_level} measure={leaf.kind[4:]}"
        + (f" k={leaf.k}" if leaf.k is not None else "")
        + (f" min_dwell={leaf.min_dwell}" if leaf.min_dwell else "")
    )
    root = PlanNode("PoiAggregate", detail, est_rows=n_granules * n_pois)
    return root, body


def _price(
    leaf: Leaf, executor: Optional[ShardedExecutor], model: CostModel
) -> _Price:
    """The leaf's held price, priced again only when its live key moved.

    The key is what the cost terms read that the prepared entry's
    validity does not cover: the fan-out (backend, shard count and
    whether the executor holds the table — it does from the first
    fan-out on), whether the answer's geometry index is cached, and the
    cost model, by value."""
    fanout = None
    if executor is not None:
        fanout = (
            executor.backend.name, executor.n_shards,
            executor.holds_shards(leaf.moft),
        )
    index_cached = None
    if not leaf.poi:
        index_cached = leaf.context.has_geometry_index(*leaf.target, leaf.ids)
    key = (fanout, index_cached, model)
    price = leaf.held.get("price")
    if price is None or price.key != key:
        if leaf.poi:
            costs, geometry, shows = _poi_terms(leaf, fanout, model)
        else:
            costs, geometry, shows = _geometric_terms(
                leaf, fanout, model, index_cached
            )
        costs = {
            name: cost for name, cost in costs.items()
            if name in KINDS[leaf.kind]
        }
        price = leaf.held["price"] = _Price(key, costs, geometry, shows, {})
    return price


def _tree(
    price: _Price, front: Tuple[PlanNode, ...], label: str, query: QueryPlan
) -> PlanNode:
    """Build a planned leaf's tree from its price: the kind's root and
    strategy subtree, ``front`` rendered before the subtree."""
    nodes = _poi_nodes if query.leaf.poi else _geometric_nodes
    root, body = nodes(query, price, label)
    root.est_cost, root.children = query.est_cost, front + (body,)
    return root


def plan(
    leaf: Leaf,
    executor: Optional[ShardedExecutor] = None,
    cost_model: Optional[CostModel] = None,
    force_strategy: Optional[str] = None,
    front: Tuple[PlanNode, ...] = (),
    label: str = "count_objects_through",
) -> QueryPlan:
    """Price every strategy of ``leaf``'s kind and choose one.

    The kind supplies its cost terms (the candidates' costs, its
    statistics) and its nodes (the root and the strategy's subtree);
    the rest is this one body for every kind.  The candidates are the
    kind's strategies (:data:`~repro.query.evaluator.KINDS`) that
    apply: ``sharded`` only with an ``executor`` (priced and recorded
    with its backend and shard count), ``preagg`` only when the leaf
    holds a store.  The cheapest wins unless ``force_strategy`` names
    one (the differential tests drive every strategy this way; Piet-QL
    forces :func:`~repro.query.evaluator.store_or_scan`); a strategy
    that cannot run is refused by :func:`~repro.query.evaluator.refuse`.
    ``front`` are the nodes rendered before the strategy's subtree,
    ``label`` names a geometric aggregate on the root; the ``rejected:``
    line lists the other candidates by cost.

    The price and the choice are held per prepared entry
    (:func:`_price`): a repeated plan under the same live key prices
    nothing, and builds no node until its tree is read.
    """
    price = _price(
        leaf, executor, cost_model if cost_model is not None else DEFAULT_COSTS
    )
    choice = price.choices.get(force_strategy)
    if choice is None:
        costs = price.costs
        if force_strategy is None:
            chosen = min(costs, key=costs.__getitem__)
        else:
            refuse(leaf, force_strategy, executor, costs)
            chosen = force_strategy
        rejected = sorted(
            ((name, cost) for name, cost in costs.items() if name != chosen),
            key=lambda pair: pair[1],
        )
        choice = price.choices[force_strategy] = (chosen, tuple(rejected))
    chosen, rejected = choice
    sharded = chosen == "sharded"
    return QueryPlan(
        strategy=chosen,
        est_cost=price.costs[chosen],
        alternatives=rejected,
        geometry=price.geometry,
        shard_count=executor.n_shards if sharded else None,
        shard_backend=executor.backend.name if sharded else None,
        leaf=leaf,
        grow=partial(_tree, price, front, label),
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
    plan keeps the leaf, so executing it repeats none of that.  See
    :func:`plan` for the candidates and ``force_strategy``.
    """
    leaf = resolve_through(
        context, target, constraints, moft_name, window=window
    )
    geo_node = PlanNode(
        op="GeometricSubquery",
        detail=(
            f"target={target[0]}:{target[1]}, "
            f"constraints={len(constraints)}"
        ),
        est_rows=len(leaf.ids),
        actual_rows=len(leaf.ids),
        actual_seconds=leaf.geosub_seconds,
    )
    return plan(leaf, executor, cost_model, force_strategy, front=(geo_node,))


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
    chosen = plan_count_objects_through(
        context, target, constraints, moft_name=moft_name, window=window,
        executor=executor, cost_model=cost_model,
        force_strategy=force_strategy,
    )
    return len(chosen.execute(executor).answer), chosen


# ---------------------------------------------------------------------------
# Shims kept for the benchmark harness, which calls them by these names
# ---------------------------------------------------------------------------


def execute_plan(
    plan: QueryPlan,
    context: EvaluationContext,
    target: Tuple[str, str],
    constraints: Sequence[Tuple[str, Tuple[str, str]]],
    moft_name: str = "FM",
    window: Optional[Tuple[float, float]] = None,
    executor: Optional[ShardedExecutor] = None,
) -> int:
    """``len(plan.execute(executor).answer)``; the query arguments are
    not read."""
    return len(plan.execute(executor).answer)


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
    """:func:`plan` of :func:`~repro.query.poi.resolve_poi`'s leaf."""
    leaf = resolve_poi(
        context, layer, granule_level, min_dwell, moft_name, measure, k
    )
    return plan(leaf, executor, cost_model, force_strategy)


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
    """``plan.execute(executor).answer``; the query arguments are not
    read."""
    return plan.execute(executor).answer


__all__ = [
    "PARTS",
    "STRATEGIES",
    "CostModel",
    "GeometryStatistics",
    "PlanNode",
    "QueryPlan",
    "execute_plan",
    "execute_poi_plan",
    "geometry_statistics",
    "plan",
    "plan_count_objects_through",
    "plan_poi_aggregate",
    "planned_count_objects_through",
]
