"""Evaluation of spatio-temporal regions ``C``.

"Our spatial region C turns, in the spatio-temporal setting, into a set of
pairs ``(objectId, time)``" (Section 3.1) — or triples with geometry ids
(query 2).  :class:`SpatioTemporalRegion` holds the output variables and
the defining formula; :meth:`SpatioTemporalRegion.evaluate` solves the
formula against an :class:`EvaluationContext` and returns the relation as a
list of dict rows ready for γ-aggregation.

The solver treats a conjunction as a constraint-propagation problem:
atoms that can enumerate bindings under the current environment run first
(most selective atoms are ordered by the caller's formula order), pure
checks and negations wait until their variables are bound.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import EvaluationError, QueryError
from repro.geometry.index import UniformGridIndex, index_for_geometries
from repro.geometry.point import Point
from repro.gis.instance import GISDimensionInstance
from repro.mo.moft import MOFT
from repro.obs import PipelineStats
from repro.mo.operations import ever_within_distance, passes_through
from repro.mo.trajectory import LinearInterpolationTrajectory
from repro.query import ast
from repro.temporal.timedim import TimeDimension

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.preagg.store import PreAggStore


class EvaluationContext:
    """Bundles the data a formula is evaluated against.

    Parameters
    ----------
    gis:
        The GIS dimension instance (layers, α, rollup relations, values).
    time:
        The Time dimension.
    mofts:
        Moving-object fact tables by name (default name ``"FM"``).
    use_overlay:
        When True (the Piet strategy of Section 5), geometry-relation atoms
        are answered from the precomputed overlay; when False every check
        recomputes geometry predicates directly (the naive strategy).
    """

    def __init__(
        self,
        gis: GISDimensionInstance,
        time: TimeDimension,
        mofts: Dict[str, MOFT] | MOFT | None = None,
        use_overlay: bool = True,
    ) -> None:
        self.gis = gis
        self.time = time
        if mofts is None:
            self._mofts: Dict[str, MOFT] = {}
        elif isinstance(mofts, MOFT):
            self._mofts = {mofts.name: mofts, "FM": mofts}
        else:
            self._mofts = dict(mofts)
        self.use_overlay = use_overlay
        self._trajectory_cache: Dict[
            Tuple[str, Hashable], LinearInterpolationTrajectory
        ] = {}
        # Pipeline observability: named counters + per-stage timers.
        self.obs = PipelineStats()
        # Grid indexes keyed by (layer, kind, answer-id-set); repeated
        # queries over the same geometric answer reuse the index instead
        # of rebuilding it per query.
        self._grid_cache: Dict[
            Tuple[str, str, frozenset], UniformGridIndex
        ] = {}
        # Registered pre-aggregation stores; the resolve step
        # (repro.query.evaluator.resolve_through) consults these.
        self._preagg_stores: List["PreAggStore"] = []

    # -- data access ----------------------------------------------------------

    def moft(self, name: str) -> MOFT:
        """Return a MOFT by name."""
        try:
            return self._mofts[name]
        except KeyError:
            raise EvaluationError(f"no MOFT named {name!r} in context") from None

    def locate_point(self, layer: str, kind: str, point: Point) -> Set[Hashable]:
        """Evaluate the point rollup relation at a point."""
        return self.gis.point_rollup(layer, kind, point)

    # -- pre-aggregation stores ----------------------------------------------

    def register_preagg(self, store: "PreAggStore") -> "PreAggStore":
        """Make a store visible to the planner rewrite; returns it."""
        self._preagg_stores.append(store)
        return store

    @property
    def has_preagg(self) -> bool:
        """True when at least one store is registered (miss counters fire)."""
        return bool(self._preagg_stores)

    def _store_for(self, moft: MOFT, layer: Optional[str], ids, **cell_key):
        """The first registered store whose cells can answer — the one
        matching loop (:meth:`repro.cellstore.GranuleStore.serves`).
        Staleness is NOT checked here: the caller decides whether a
        stale store is a miss."""
        wanted = set(ids)
        for store in self._preagg_stores:
            if store.serves(moft, layer, wanted, **cell_key):
                return store
        return None

    def preagg_for(
        self,
        moft: MOFT,
        layer: str,
        kind: str,
        ids: Iterable[Hashable],
    ) -> Optional["PreAggStore"]:
        """The first registered :class:`~repro.preagg.PreAggStore` over
        exactly this table (by identity) and (layer, kind) that
        materializes every queried id."""
        return self._store_for(moft, layer, ids, kind=kind)

    def poi_store_for(
        self,
        moft: MOFT,
        layer: Optional[str],
        granule_level: str,
        min_dwell: float,
        ids: Iterable[Hashable],
    ):
        """The first registered :class:`~repro.poi.PoiVisitStore` able to
        serve this POI aggregate (same registry, same lifecycle): its
        cell key pins the granule level and the ``min_dwell`` threshold,
        both baked into the cells at build time."""
        return self._store_for(
            moft, layer, ids,
            granule_level=granule_level, min_dwell=float(min_dwell),
        )

    def geometry_index(
        self,
        layer: str,
        kind: str,
        ids: Iterable[Hashable],
        obs: Optional[PipelineStats] = None,
    ) -> UniformGridIndex:
        """A grid index over one geometric answer, cached per id set.

        The Section 5 pipeline rebuilds its candidate filter from the
        geometric subquery's answer; answers repeat across queries (the
        subquery is cheap against the overlay and often identical), so
        the index is cached under ``(layer, kind, frozenset(ids))``.
        Cache behavior is counted as ``grid_index_builds`` /
        ``grid_index_cache_hits`` on the context observer (and on ``obs``
        when given); build time lands in the ``index_build`` stage.
        """
        key = (layer, kind, frozenset(ids))
        observers = [self.obs] if obs is None else [self.obs, obs]
        index = self._grid_cache.get(key)
        if index is not None:
            for observer in observers:
                observer.incr("grid_index_cache_hits")
            return index
        for observer in observers:
            observer.incr("grid_index_builds")
        elements = self.gis.layer(layer).elements(kind)
        with self.obs.stage("index_build"):
            index = index_for_geometries(
                {gid: elements[gid] for gid in key[2]}
            )
        self._grid_cache[key] = index
        return index

    # -- geometry relations (overlay vs naive) ------------------------------------

    def geometry_pairs(
        self, layer_a: str, kind_a: str, predicate: str, layer_b: str, kind_b: str
    ) -> Set[Tuple[Hashable, Hashable]]:
        """All id pairs satisfying the predicate between two (layer, kind)s."""
        if self.use_overlay:
            self.obs.incr("overlay_hits")
            return self.gis.overlay().pairs(
                f"{layer_a}:{kind_a}", f"{layer_b}:{kind_b}", predicate
            )
        from repro.geometry.overlay import geometries_intersect, geometry_contains

        elems_a = self.gis.layer(layer_a).elements(kind_a)
        elems_b = self.gis.layer(layer_b).elements(kind_b)
        result: Set[Tuple[Hashable, Hashable]] = set()
        for id_a, geom_a in elems_a.items():
            for id_b, geom_b in elems_b.items():
                self.obs.incr("geometry_checks")
                if predicate == "intersects":
                    hit = geometries_intersect(geom_a, geom_b)
                elif predicate == "contains":
                    hit = geometry_contains(geom_a, geom_b)
                elif predicate == "within":
                    hit = geometry_contains(geom_b, geom_a)
                else:
                    raise EvaluationError(f"unknown predicate {predicate!r}")
                if hit:
                    result.add((id_a, id_b))
        return result

    def geometry_related(
        self,
        layer_a: str,
        kind_a: str,
        gid_a: Hashable,
        predicate: str,
        layer_b: str,
        kind_b: str,
        gid_b: Hashable,
    ) -> bool:
        """Decide one geometric predicate between two identified elements."""
        if self.use_overlay:
            self.obs.incr("overlay_hits")
            pairs = self.gis.overlay().pairs(
                f"{layer_a}:{kind_a}", f"{layer_b}:{kind_b}", predicate
            )
            return (gid_a, gid_b) in pairs
        from repro.geometry.overlay import geometries_intersect, geometry_contains

        geom_a = self.gis.layer(layer_a).element(kind_a, gid_a)
        geom_b = self.gis.layer(layer_b).element(kind_b, gid_b)
        self.obs.incr("geometry_checks")
        if predicate == "intersects":
            return geometries_intersect(geom_a, geom_b)
        if predicate == "contains":
            return geometry_contains(geom_a, geom_b)
        if predicate == "within":
            return geometry_contains(geom_b, geom_a)
        raise EvaluationError(f"unknown predicate {predicate!r}")

    # -- trajectory atoms ------------------------------------------------------------

    def trajectory(
        self, moft_name: str, oid: Hashable
    ) -> LinearInterpolationTrajectory:
        """Return (cached) the LIT of one object's samples."""
        key = (moft_name, oid)
        if key not in self._trajectory_cache:
            self.obs.incr("trajectory_builds")
            sample = self.moft(moft_name).trajectory_sample(oid)
            self._trajectory_cache[key] = LinearInterpolationTrajectory(sample)
        return self._trajectory_cache[key]

    def trajectory_intersects(
        self, moft_name: str, oid: Hashable, layer: str, kind: str, gid: Hashable
    ) -> bool:
        """Does the interpolated trajectory of ``oid`` meet the geometry?

        Objects with a single sample degenerate to a point probe.
        """
        from repro.geometry.overlay import geometries_intersect
        from repro.geometry.polygon import Polygon

        geometry = self.gis.layer(layer).element(kind, gid)
        history = self.moft(moft_name).history(oid)
        if len(history) == 1:
            _, x, y = history[0]
            return geometries_intersect(geometry, Point(x, y))
        trajectory = self.trajectory(moft_name, oid)
        if isinstance(geometry, Polygon):
            return passes_through(trajectory, geometry)
        return any(
            geometries_intersect(segment, geometry)
            for _, _, segment in trajectory.pieces()
        )

    def trajectory_within_distance(
        self,
        moft_name: str,
        oid: Hashable,
        layer: str,
        kind: str,
        gid: Hashable,
        radius: float,
    ) -> bool:
        """Does the interpolated trajectory pass within ``radius`` of a node?

        Objects with a single sample degenerate to a point-distance check.
        """
        node = self.gis.layer(layer).element(kind, gid)
        if not isinstance(node, Point):
            raise EvaluationError(
                "trajectory_within_distance expects a node (point) element"
            )
        history = self.moft(moft_name).history(oid)
        if len(history) == 1:
            _, x, y = history[0]
            return node.distance_to(Point(x, y)) <= radius + 1e-12
        return ever_within_distance(
            self.trajectory(moft_name, oid), node, radius
        )

    def trajectory_possibly_through(
        self,
        moft_name: str,
        oid: Hashable,
        layer: str,
        kind: str,
        gid: Hashable,
        max_speed: float,
    ) -> bool:
        """Could the object have entered the geometry, given a speed bound?

        Uses the Hornsby–Egenhofer lifeline-bead model: between consecutive
        observations the object stays within the bead for ``max_speed``;
        the atom holds when some bead footprint meets the geometry.
        Single-sample objects degenerate to a point test.
        """
        from repro.geometry.polygon import Polygon
        from repro.mo.beads import Lifeline

        geometry = self.gis.layer(layer).element(kind, gid)
        moft = self.moft(moft_name)
        history = moft.history(oid)
        if len(history) == 1:
            _, x, y = history[0]
            if isinstance(geometry, Polygon):
                return geometry.contains_point(Point(x, y))
            from repro.geometry.overlay import geometries_intersect

            return geometries_intersect(geometry, Point(x, y))
        lifeline = Lifeline(
            moft.trajectory_sample(oid), max_speed, clamp_to_feasible=True
        )
        if isinstance(geometry, Polygon):
            return lifeline.could_have_entered(geometry)
        if isinstance(geometry, Point):
            return lifeline.could_have_visited(geometry)
        raise EvaluationError(
            "PossiblyThrough supports polygon and node geometries"
        )


class SpatioTemporalRegion:
    """A region ``C = {(outputs) | formula}``.

    ``output_variables`` name the tuple components of the resulting
    relation (typically ``("oid", "t")``); every output variable must occur
    free in the formula.
    """

    def __init__(
        self, output_variables: Sequence[str], formula: ast.Formula
    ) -> None:
        if not output_variables:
            raise QueryError("a region needs at least one output variable")
        free = formula.free_variables()
        missing = [v for v in output_variables if v not in free]
        if missing:
            raise QueryError(
                f"output variables {missing} do not occur free in the "
                f"formula (free: {sorted(free)})"
            )
        self.output_variables = tuple(output_variables)
        self.formula = formula

    def evaluate(self, context: EvaluationContext) -> List[Dict[str, Any]]:
        """Solve the formula; return distinct output rows as dicts."""
        rows: Set[Tuple[Any, ...]] = set()
        for env in _solve(self.formula, context, {}):
            missing = [v for v in self.output_variables if v not in env]
            if missing:
                raise EvaluationError(
                    f"unsafe query: output variables {missing} were never "
                    f"bound by a positive atom"
                )
            rows.add(tuple(env[v] for v in self.output_variables))
        return [
            dict(zip(self.output_variables, row)) for row in sorted(rows, key=repr)
        ]

    def evaluate_tuples(self, context: EvaluationContext) -> Set[Tuple[Any, ...]]:
        """Like :meth:`evaluate` but returning a set of plain tuples."""
        return {
            tuple(row[v] for v in self.output_variables)
            for row in self.evaluate(context)
        }


# ---------------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------------


def _solve(
    formula: ast.Formula, context: EvaluationContext, env: Dict[str, Any]
) -> Iterator[Dict[str, Any]]:
    """Yield environments (extending ``env``) that satisfy the formula."""
    if isinstance(formula, ast.And):
        yield from _solve_conjunction(list(formula.children), context, env)
    elif isinstance(formula, ast.Or):
        seen: Set[Tuple[Tuple[str, Any], ...]] = set()
        for child in formula.children:
            for result in _solve(child, context, env):
                key = tuple(sorted(result.items(), key=lambda kv: kv[0]))
                if key not in seen:
                    seen.add(key)
                    yield result
    elif isinstance(formula, ast.Not):
        # Negation-as-failure with existential closure: variables unbound
        # at this point are treated as ∃-quantified inside the ¬ — exactly
        # the paper's query-3 pattern ``¬(∃x1 ∃y1 ∃pg1 ∃t1 …)``.  The
        # scheduler runs negations last, so variables shared with positive
        # conjuncts are already bound.
        if not _satisfiable(formula.child, context, env):
            yield env
    elif isinstance(formula, ast.Exists):
        for value in formula.domain.values(context):
            inner = dict(env)
            inner[formula.var.name] = value
            if _satisfiable(formula.child, context, inner):
                yield env
                return
    elif isinstance(formula, ast.ForAll):
        for value in formula.domain.values(context):
            inner = dict(env)
            inner[formula.var.name] = value
            if not _satisfiable(formula.child, context, inner):
                return
        yield env
    elif isinstance(formula, ast.Atom):
        unbound = [v for v in formula.free_variables() if v not in env]
        if not unbound:
            if formula.check(context, env):
                yield env
        else:
            yield from formula.enumerate_bindings(context, env)
    else:
        raise EvaluationError(f"unknown formula node {type(formula).__name__}")


def _satisfiable(
    formula: ast.Formula, context: EvaluationContext, env: Dict[str, Any]
) -> bool:
    """True when the formula has at least one satisfying extension."""
    for _ in _solve(formula, context, env):
        return True
    return False


def _solve_conjunction(
    children: List[ast.Formula],
    context: EvaluationContext,
    env: Dict[str, Any],
) -> Iterator[Dict[str, Any]]:
    """Ordered backtracking with ready-first scheduling.

    At each step, pick the first child whose evaluation is *ready*:
    an atom that is fully bound (cheap check), then an atom that can
    enumerate under the current bindings, then quantifiers/disjunctions,
    and negations only once fully bound.  This keeps the written order of
    the formula meaningful (selective atoms first) while never evaluating
    a node before its inputs exist.
    """
    if not children:
        yield env
        return
    index = _pick_ready(children, env)
    if index is None:
        names = [type(c).__name__ for c in children]
        raise EvaluationError(
            f"no conjunct is evaluable under bindings {sorted(env)}: {names}"
        )
    chosen = children[index]
    rest = children[:index] + children[index + 1 :]
    for extended in _solve(chosen, context, env):
        yield from _solve_conjunction(rest, context, extended)


def _pick_ready(
    children: List[ast.Formula], env: Dict[str, Any]
) -> Optional[int]:
    # 1. Fully-bound atoms and negations (cheap filters).
    for i, child in enumerate(children):
        free = child.free_variables()
        if all(v in env for v in free):
            return i
    # 2. Atoms able to enumerate.
    for i, child in enumerate(children):
        if isinstance(child, ast.Atom) and child.can_enumerate(env):
            return i
    # 3. Quantifiers / disjunctions / nested conjunctions: their inner
    #    solver existentially closes still-unbound variables.  Variables
    #    shared with positive atoms outside the quantifier should be bound
    #    by those atoms first, which stages 1–2 guarantee whenever such an
    #    atom exists.
    for i, child in enumerate(children):
        if isinstance(child, (ast.Exists, ast.ForAll, ast.Or, ast.And)):
            return i
    # 4. Negations run last (negation as failure with ∃-closure).
    for i, child in enumerate(children):
        if isinstance(child, ast.Not):
            return i
    return None
