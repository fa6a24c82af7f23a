"""Evaluation of spatio-temporal regions ``C``.

"Our spatial region C turns, in the spatio-temporal setting, into a set of
pairs ``(objectId, time)``" (Section 3.1) — or triples with geometry ids
(query 2).  :class:`SpatioTemporalRegion` holds the output variables and
the defining formula; :meth:`SpatioTemporalRegion.relation` returns the
relation as codes (:class:`RegionRelation`), which γ groups by its codes.

A formula of the paper's sample-semantics shape — the MOFT atom, Time
rollups, one point-in-polygon rollup with its α and conditions on the
α member — is evaluated as columns (:func:`_lower`): each atom is
decided once per distinct instant or per α member by its own ``check``,
and containment is one pass over the answer's polygons.  Every other
formula goes to the solver, which treats a conjunction as a
constraint-propagation problem: atoms that can enumerate bindings under
the current environment run first (most selective atoms are ordered by
the caller's formula order), pure checks and negations wait until their
variables are bound.  Both paths give the same relation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import EvaluationError, QueryError
from repro.geometry.index import Grid
from repro.geometry.kernels import PolygonPass
from repro.geometry.overlay import (
    PREDICATES,
    geometries_intersect,
    geometry_contains,
)
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.gis.geometries import POLYGON
from repro.gis.instance import GISDimensionInstance
from repro.mo.moft import MOFT, packed_key
from repro.obs import PipelineStats
from repro.mo.operations import ever_within_distance, passes_through
from repro.mo.trajectory import LinearInterpolationTrajectory
from repro.query import ast
from repro.query.vectorized import points_inside
from repro.temporal.timedim import TimeDimension

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.preagg.store import PreAggStore
    from repro.query.evaluator import Leaf

#: Prepared leaves a context keeps (:meth:`EvaluationContext.prepared`),
#: least recently used first out.
PREPARED_LEAVES = 64


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
        # Registered pre-aggregation stores; the resolve step
        # (repro.query.evaluator.resolve_through) consults these.
        self._preagg_stores: List["PreAggStore"] = []
        # spec -> (table, state, leaf bound to no context): see prepared.
        self._prepared: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self._prepared_lock = threading.Lock()

    def __getstate__(self) -> Dict[str, Any]:
        # Prepared leaves are a cache of this process's resolutions: a
        # copy resolves its own.
        state = dict(self.__dict__)
        del state["_prepared"], state["_prepared_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._prepared = OrderedDict()
        self._prepared_lock = threading.Lock()

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

    # -- prepared leaves ----------------------------------------------------------

    def prepared(
        self, key: Hashable, moft: MOFT, resolve: Callable[[], "Leaf"]
    ) -> "Leaf":
        """The leaf of one resolved spec, resolved once per state of
        what it was resolved against.

        ``key`` is the spec, ``moft`` its table and ``resolve`` the
        resolve step (:func:`repro.query.evaluator.resolve_through` and
        :func:`repro.query.poi.resolve_poi` pass theirs).  The entry is
        valid while the table (by identity and ``version``), the Time
        dimension's ``version``, the GIS's geometry ``generation``, the
        overlay flag and every registered store's ``generation`` stay as
        they were, and its store is fresh; anything else resolves again
        and replaces it.  It holds the leaf bound to no context — one that
        held this context would keep it alive past its last reference,
        until the cycle collector ran — and a hit returns a copy bound
        to this one (:meth:`~repro.query.evaluator.Leaf.bound`), which
        shares what the leaf derives (:meth:`~repro.query.evaluator
        .Leaf.memo`).  A resolve step that raises keeps nothing.
        Counted as ``prepared_leaf_hits`` / ``prepared_leaf_misses``.
        """
        state = (
            moft.version, self.time.instance.version, self.gis.generation,
            self.use_overlay,
            tuple(store.generation for store in self._preagg_stores),
        )
        with self._prepared_lock:
            entry = self._prepared.get(key)
            held = (
                entry is not None and entry[0] is moft and entry[1] == state
                # (A store watching another Time dimension goes stale
                # with none of the above moving.)
                and (entry[2].store is None or not entry[2].store.is_stale())
            )
            if held:
                self._prepared.move_to_end(key)
        if held:
            self.obs.incr("prepared_leaf_hits")
            return entry[2].bound(self)
        self.obs.incr("prepared_leaf_misses")
        leaf = resolve()
        with self._prepared_lock:
            self._prepared[key] = (moft, state, leaf.bound(None))
            self._prepared.move_to_end(key)
            while len(self._prepared) > PREPARED_LEAVES:
                self._prepared.popitem(last=False)
        return leaf

    def geometry_index(
        self,
        layer: str,
        kind: str,
        ids: Iterable[Hashable],
        obs: Optional[PipelineStats] = None,
    ) -> Union[PolygonPass, Grid]:
        """The index of one geometric answer: over the geometries in id
        order (``repr`` of the id), the
        :class:`~repro.geometry.kernels.PolygonPass` the batched scans
        read when every geometry is a polygon (its grid, edge table and
        decided cells), else the answer's
        :class:`~repro.geometry.index.Grid`.

        The Section 5 pipeline rebuilds its candidate filter from the
        geometric subquery's answer; answers repeat across queries (the
        subquery is cheap against the overlay and often identical), so
        the index is the one the layer keeps under ``(kind,
        frozenset(ids))`` (:meth:`repro.gis.layer.Layer.geometry_index`),
        shared by every context over the GIS — an ingest snapshot's
        too.  Counted as ``grid_index_builds`` / ``grid_index_cache_hits``
        on the context observer (and on ``obs`` when given); build time
        lands in the context observer's ``index_build`` stage.
        """
        observers = [self.obs] if obs is None else [self.obs, obs]
        return self.gis.layer(layer).geometry_index(kind, ids, observers)

    def has_geometry_index(
        self, layer: str, kind: str, ids: Iterable[Hashable]
    ) -> bool:
        """Whether the layer keeps :meth:`geometry_index` of this answer."""
        return self.gis.layer(layer).kept_index(kind, ids) is not None

    # -- geometry relations (overlay vs naive) ------------------------------------

    def geometry_pairs(
        self, layer_a: str, kind_a: str, predicate: str, layer_b: str, kind_b: str
    ) -> Set[Tuple[Hashable, Hashable]]:
        """All id pairs satisfying the predicate between two (layer, kind)s."""
        _require_predicate(predicate)
        if self.use_overlay:
            self.obs.incr("overlay_hits")
            return self.gis.overlay().pairs(
                f"{layer_a}:{kind_a}", f"{layer_b}:{kind_b}", predicate
            )
        elems_a = self.gis.layer(layer_a).elements(kind_a)
        elems_b = self.gis.layer(layer_b).elements(kind_b)
        result: Set[Tuple[Hashable, Hashable]] = set()
        for id_a, geom_a in elems_a.items():
            for id_b, geom_b in elems_b.items():
                self.obs.incr("geometry_checks")
                if _geometries_related(geom_a, predicate, geom_b):
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
        _require_predicate(predicate)
        if self.use_overlay:
            self.obs.incr("overlay_hits")
            pairs = self.gis.overlay().pairs(
                f"{layer_a}:{kind_a}", f"{layer_b}:{kind_b}", predicate
            )
            return (gid_a, gid_b) in pairs
        geom_a = self.gis.layer(layer_a).element(kind_a, gid_a)
        geom_b = self.gis.layer(layer_b).element(kind_b, gid_b)
        self.obs.incr("geometry_checks")
        return _geometries_related(geom_a, predicate, geom_b)

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
        from repro.mo.beads import Lifeline

        geometry = self.gis.layer(layer).element(kind, gid)
        moft = self.moft(moft_name)
        history = moft.history(oid)
        if len(history) == 1:
            _, x, y = history[0]
            if isinstance(geometry, Polygon):
                return geometry.contains_point(Point(x, y))
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


def _require_predicate(predicate: str) -> None:
    """Reject a predicate the overlay cannot answer, before any geometry
    is touched, under either strategy."""
    if predicate not in PREDICATES:
        raise EvaluationError(
            f"unknown predicate {predicate!r}; expected one of {PREDICATES}"
        )


def _geometries_related(geom_a, predicate: str, geom_b) -> bool:
    """The naive strategy: decide a validated predicate from the geometry."""
    if predicate == "intersects":
        return geometries_intersect(geom_a, geom_b)
    if predicate == "contains":
        return geometry_contains(geom_a, geom_b)
    return geometry_contains(geom_b, geom_a)  # within


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

    def relation(self, context: EvaluationContext) -> "RegionRelation":
        """The region's distinct output rows, as codes.  A formula
        :func:`_lower` accepts is evaluated as columns and counts
        ``regions_lowered`` on ``context.obs``; any other is solved and
        counts ``regions_solved``.  The shape alone decides."""
        lowered = _lower(self, context)
        if isinstance(lowered, _Lowered):
            context.obs.incr("regions_lowered")
            return lowered.relation(context)
        context.obs.incr("regions_solved")
        rows, codes, values = list(_solved(self, context)), [], []
        for i in range(len(self.output_variables)):  # interned once each
            index: Dict[Hashable, int] = {}
            codes.append([index.setdefault(row[i], len(index)) for row in rows])
            values.append(np.fromiter(index, object, len(index)))
        return RegionRelation(self.output_variables, codes, values)

    def evaluate(self, context: EvaluationContext) -> List[Dict[str, Any]]:
        """The :meth:`relation`'s rows as dicts, sorted by ``repr`` of the row."""
        rows = sorted(self.relation(context).rows(), key=repr)
        return [dict(zip(self.output_variables, row)) for row in rows]

    def path(self, context: EvaluationContext) -> str:
        """The path :meth:`evaluate` takes, in one line: ``lowered:`` with
        the instants kept, the answer's geometry ids and the outputs, or
        ``solver:`` with the first conjunct that kept the formula off
        the lowering.  Decides the atoms; scans no rows."""
        lowered = _lower(self, context)
        if isinstance(lowered, _Lowered):
            return lowered.describe()
        return f"solver: {lowered}"

    def evaluate_tuples(self, context: EvaluationContext) -> Set[Tuple[Any, ...]]:
        """Like :meth:`evaluate` but returning a set of plain tuples."""
        return set(self.relation(context).rows())


class RegionRelation:
    """A region's answer ``C`` as codes: column ``columns[i]`` of row
    ``r`` is ``values[i][codes[i][r]]``, over a value array of distinct
    values.  The rows are distinct — the constructor keeps one row of
    each code tuple — as the solver's set is.  γ groups by codes
    (:meth:`group`) and decodes only what it returns (:meth:`column`)."""

    def __init__(self, columns: Sequence[str], codes, values) -> None:
        self.columns, self.values = tuple(columns), tuple(values)
        self.codes = tuple(np.asarray(code, dtype=np.intp) for code in codes)
        first, _ = self.group(self.columns)
        self.codes = tuple(code[first] for code in self.codes)

    def column(self, name: str, at: Optional[np.ndarray] = None) -> List[Any]:
        """Column ``name`` as Python values, at the rows ``at`` (default all)."""
        i = self.columns.index(name)
        codes = self.codes[i] if at is None else self.codes[i][at]
        return self.values[i][codes].tolist()

    def group(self, names: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
        """``(first, group)``: one row of each distinct value of the
        ``names`` columns, and each row's position among them, by one
        ``np.unique`` of their :func:`~repro.mo.moft.packed_key`."""
        key = packed_key(len(self.codes[0]), (
            (len(self.values[i]), self.codes[i])
            for i in map(self.columns.index, names)
        ))
        distinct, group = np.unique(key, return_inverse=True)
        first = np.empty(distinct.size, dtype=np.intp)
        first[group] = np.arange(group.size)
        return first, group

    def rows(self) -> List[Tuple[Any, ...]]:
        """The rows as tuples of Python values, in the relation's order."""
        return list(zip(*map(self.column, self.columns)))


# ---------------------------------------------------------------------------
# The lowering
# ---------------------------------------------------------------------------


@dataclass
class _Lowered:
    """A region of the sample-semantics shape, decided up to containment.

    ``sample`` names the MOFT atom's ``(oid, t, x, y)`` variables and
    ``keep`` says which distinct instants of ``table``
    (:meth:`~repro.mo.moft.MOFT.instant_codes`) pass every Time atom.
    With a point-in-polygon atom on ``layer``, ``members`` maps each
    geometry id of the answer to its α members that pass the member
    conditions (``None`` for a constant member) and ``gid`` names the
    atom's id variable; without one, ``members`` is None.
    """

    outputs: Tuple[str, ...]
    table: MOFT
    sample: Tuple[str, str, str, str]
    keep: np.ndarray
    layer: Optional[str] = None
    gid: Optional[str] = None
    members: Optional[Dict[Hashable, List[Hashable]]] = None

    def describe(self) -> str:
        if self.members is None:
            ids = "all (no containment)"
        else:
            ids = "[" + ", ".join(map(repr, sorted(self.members, key=repr))) + "]"
        return (
            f"lowered: {int(self.keep.sum())} of {self.keep.size} instants, "
            f"geometry ids {ids}, outputs ({', '.join(self.outputs)})"
        )

    def relation(self, context: EvaluationContext) -> RegionRelation:
        """The region's rows as codes: one per sample in a kept instant,
        and per α member of each answer polygon that holds the sample.
        Containment is :func:`~repro.query.vectorized.points_inside` over
        the answer's cached pass (positions in ``repr`` order of the id,
        as :meth:`EvaluationContext.geometry_index` lays them out)."""
        t, x, y = self.table.as_arrays()
        instants, instant_codes = self.table.instant_codes()
        at = np.flatnonzero(self.keep[instant_codes])
        if self.members is not None:
            ids = sorted(self.members, key=repr)
            index: Dict[Hashable, int] = {}
            # (geometry position, member code), ascending in the position.
            pairs = np.array([
                (p, index.setdefault(m, len(index)))
                for p, gid in enumerate(ids) for m in self.members[gid]
            ], dtype=np.intp).reshape(-1, 2)
            rows = at
            pos = at = np.empty(0, dtype=np.intp)
            if ids and rows.size:
                passes = context.geometry_index(self.layer, POLYGON, ids)
                found = list(points_inside(passes, x[rows], y[rows], obs=context.obs))
                pos = np.concatenate([p for p, _ in found])
                at = rows[np.concatenate([a for _, a in found])]
            # Each hit once per member of its polygon.
            lo = np.searchsorted(pairs[:, 0], pos)
            times = np.searchsorted(pairs[:, 0], pos, "right") - lo
            pick = np.repeat(lo - np.cumsum(times) + times, times)
            gids, members = pairs[pick + np.arange(pick.size)].T
            at = np.repeat(at, times)
        oid, t_name, x_name, y_name = self.sample
        columns = []
        for name in self.outputs:
            if name == oid:
                columns.append((self.table.object_codes()[at], self.table.oids))
            elif name == t_name:
                columns.append((instant_codes[at], instants))
            elif name in (x_name, y_name):  # (codes, values) of np.unique
                xy = np.unique((x if name == x_name else y)[at], return_inverse=True)
                columns.append(xy[::-1])
            elif name == self.gid:
                columns.append((gids, np.fromiter(ids, object, len(ids))))
            else:  # the member variable
                columns.append((members, np.fromiter(index, object, len(index))))
        return RegionRelation(self.outputs, *zip(*columns))


def _lower(
    region: SpatioTemporalRegion, context: EvaluationContext
) -> Union[_Lowered, str]:
    """The region as columns, or the reason it stays on the solver.

    The shape is the conjunction :class:`~repro.query.builder
    .RegionBuilder` emits for sample semantics, in any order: one
    ``Moft(oid, t, x, y)`` over four distinct variables; any
    ``TimeRollup(t, level, Const)`` / ``TimeRollupCompare(t, ...)``;
    at most one ``PointIn(x, y, layer, polygon, g)`` with its
    ``Alpha(attribute, m, g)``; and conditions on the member ``m``: a
    ``Compare`` or an ``Or`` of ``Compare`` whose only variable is ``m``
    (or none).  The reason is the first conjunct outside it.

    Each atom is decided by its own ``check``: a Time atom once per
    distinct instant of the table (so membership is exactly the Time
    dimension's: an unregistered instant matches nothing), a member
    condition once per α member.  An atom that raises while deciding
    leaves the formula to the solver, which raises it where it reaches
    it, or not when no binding does.
    """
    formula = region.formula
    conjuncts = formula.children if isinstance(formula, ast.And) else (formula,)
    first: Dict[type, ast.Formula] = {}
    for conjunct in conjuncts:
        first.setdefault(type(conjunct), conjunct)
    moft = first.get(ast.Moft)
    if moft is None:
        return "no Moft atom"
    point_in, alpha = first.get(ast.PointIn), first.get(ast.Alpha)
    sample = tuple(
        term.name if isinstance(term, ast.Var) else None
        for term in moft._terms()
    )
    if None in sample or len(set(sample)) < 4:
        return moft.describe()
    gid = member = None
    if point_in is not None and isinstance(point_in.gid, ast.Var):
        gid = point_in.gid.name
    if alpha is not None and isinstance(alpha.member, ast.Var):
        member = alpha.member.name
    time_atoms: List[ast.Atom] = []
    conditions: List[ast.Formula] = []
    for conjunct in conjuncts:
        if conjunct is moft:
            continue
        if conjunct is point_in:
            fits = (
                point_in.kind == POLYGON
                and gid is not None
                and gid not in sample
                and (point_in.x, point_in.y) == (moft.x, moft.y)
            )
        elif conjunct is alpha:
            fits = point_in is None or (
                alpha.gid == point_in.gid
                and (member is None or member not in (gid, *sample))
            )
        elif isinstance(conjunct, (ast.TimeRollup, ast.TimeRollupCompare)):
            fits = conjunct.free_variables() == {sample[1]}
            time_atoms.append(conjunct)
        elif isinstance(conjunct, ast.Compare) or (
            isinstance(conjunct, ast.Or)
            and all(isinstance(c, ast.Compare) for c in conjunct.children)
        ):
            fits = conjunct.free_variables() <= {member}
            conditions.append(conjunct)
        else:
            fits = False
        if not fits:
            return conjunct.describe().splitlines()[0]
    if (point_in is None) != (alpha is None):
        return (point_in or alpha).describe()
    current: ast.Formula = moft
    passing: List[Dict[str, Any]] = [{}]
    try:
        table = context.moft(moft.moft_name)
        instants = table.instant_codes()[0].tolist()
        keep = np.ones(len(instants), dtype=bool)
        for current in time_atoms:
            keep &= np.array(
                [current.check(context, {sample[1]: u}) for u in instants],
                dtype=bool,
            )
        if point_in is not None:
            current = point_in
            layer = context.gis.point_layer(point_in.layer, POLYGON)
            elements = layer.elements(POLYGON)
            current = alpha
            passing = [
                env for env in alpha.enumerate_bindings(context, {})
                if env[gid] in elements
            ]
        for current in conditions:
            if current.free_variables():
                passing = [e for e in passing if _holds(current, context, e)]
            elif not _holds(current, context, {}):
                passing = []
    except Exception:
        return current.describe().splitlines()[0]
    if point_in is None:
        return _Lowered(region.output_variables, table, sample, keep & bool(passing))
    members: Dict[Hashable, List[Hashable]] = {}
    for env in passing:
        members.setdefault(env[gid], []).append(env.get(member))
    return _Lowered(
        region.output_variables, table, sample, keep, point_in.layer, gid,
        members,
    )


def _holds(condition: ast.Formula, context, env: Dict[str, Any]) -> bool:
    """A member condition under ``env``, as the solver decides it: an
    ``Or`` holds when one of its children does, every child checked."""
    if isinstance(condition, ast.Or):
        return any([child.check(context, env) for child in condition.children])
    return condition.check(context, env)


# ---------------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------------


def _solved(
    region: SpatioTemporalRegion, context: EvaluationContext
) -> Set[Tuple[Any, ...]]:
    """The region's output tuples, binding by binding."""
    rows: Set[Tuple[Any, ...]] = set()
    for env in _solve(region.formula, context, {}):
        missing = [v for v in region.output_variables if v not in env]
        if missing:
            raise EvaluationError(
                f"unsafe query: output variables {missing} were never "
                f"bound by a positive atom"
            )
        rows.add(tuple(env[v] for v in region.output_variables))
    return rows


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
