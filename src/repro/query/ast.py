"""The constraint language defining spatio-temporal regions ``C``.

The paper expresses every query region as a first-order formula over a
multi-sorted logic with the rollup relations ``r``, the α functions, the
Time-dimension rollups ``R``, the MOFT relation ``FM`` and arithmetic
comparisons (Definition 4 and Sections 3.1/4).  This module provides the
corresponding AST:

* **Terms** — variables and constants.
* **Atoms** — ``Moft`` (the FM relation), ``TimeRollup`` (``R^level(t)``),
  ``PointIn`` (``r^{Pt,G}_L``), ``Alpha`` (``α^{A,G}_L``),
  ``GeometryRelation`` (overlay predicates between layer elements),
  ``WithinDistance`` (the ``(x-x1)² + (y-y1)² ≤ d²`` constraints of
  queries 6/7), ``Compare`` (attribute/value comparisons like
  ``n.income < 1500``) and the trajectory atoms — ``TrajectoryIntersects``,
  ``TrajectoryWithinDistance`` and ``PossiblyThrough``, one
  ``TrajectoryAtom`` base — that package the paper's explicit linear-
  interpolation subformulas and their uncertainty variant.
* **Connectives** — ``And``, ``Or``, ``Not``, ``Exists``, ``ForAll`` with
  explicit finite quantifier domains.

Evaluation lives in :mod:`repro.query.region`; atoms implement a
*bind-or-enumerate* protocol so a conjunctive formula is solved by ordered
backtracking over finite domains.
"""

from __future__ import annotations

import abc
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Iterable, Iterator, List, Tuple

from repro.errors import QueryError

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    """A logical variable, identified by name."""

    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class Const:
    """A literal constant."""

    value: Any

    def __repr__(self) -> str:
        return repr(self.value)


Term = "Var | Const"


def term_value(term: "Var | Const", env: Dict[str, Any]) -> Any:
    """Resolve a term under an environment; unbound variables raise."""
    if isinstance(term, Const):
        return term.value
    if term.name in env:
        return env[term.name]
    raise QueryError(f"variable {term!r} unbound during evaluation")


def is_bound(term, env: Dict[str, Any]) -> bool:
    """True when the term resolves under ``env``.

    Accepts variables, constants and :class:`MemberValue` expressions
    (bound when their member term is bound).
    """
    if isinstance(term, Const):
        return True
    if isinstance(term, MemberValue):
        return is_bound(term.member, env)
    return term.name in env


@dataclass(frozen=True)
class MemberValue:
    """The value expression ``member.field`` (e.g. ``n.income``).

    ``attribute`` names the application category the member belongs to; the
    GIS instance stores the field values (Definition 2's application part).
    """

    attribute: str
    member: "Var | Const"
    field_name: str

    def __repr__(self) -> str:
        return f"{self.member!r}.{self.field_name}"


ValueExpr = "Var | Const | MemberValue"

#: Comparison operators available in formulas.
OPERATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
}


def parse_operator(op: str) -> Callable[[Any, Any], bool]:
    """Look up a comparison operator by symbol."""
    try:
        return OPERATORS[op]
    except KeyError:
        raise QueryError(
            f"unknown operator {op!r}; expected one of {sorted(OPERATORS)}"
        ) from None


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class Formula(abc.ABC):
    """Base class of all formula nodes."""

    @abc.abstractmethod
    def free_variables(self) -> frozenset:
        """Names of the variables occurring free in the formula."""

    def describe(self, indent: int = 0) -> str:
        """Render the formula as an indented one-node-per-line tree.

        Connectives and quantifiers open a level, atoms print their
        :meth:`_describe_line` (default: the dataclass repr).  This is
        the formula half of EXPLAIN output — see
        :meth:`repro.query.builder.RegionBuilder.explain`.
        """
        pad = "  " * indent
        if isinstance(self, (And, Or)):
            lines = [f"{pad}{type(self).__name__}"]
            lines.extend(c.describe(indent + 1) for c in self.children)
            return "\n".join(lines)
        if isinstance(self, Not):
            return "\n".join(
                [f"{pad}Not", self.child.describe(indent + 1)]
            )
        if isinstance(self, (Exists, ForAll)):
            return "\n".join(
                [
                    f"{pad}{type(self).__name__} {self.var!r} "
                    f"in {type(self.domain).__name__}",
                    self.child.describe(indent + 1),
                ]
            )
        return f"{pad}{self._describe_line()}"

    def _describe_line(self) -> str:
        """One-line label of a leaf node (atoms override as needed)."""
        return repr(self)

    def __and__(self, other: "Formula") -> "And":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


def _terms_free(*terms) -> frozenset:
    names = set()
    for term in terms:
        if isinstance(term, Var):
            names.add(term.name)
        elif isinstance(term, MemberValue) and isinstance(term.member, Var):
            names.add(term.member.name)
    return frozenset(names)


@dataclass(frozen=True)
class And(Formula):
    """Conjunction of sub-formulas."""

    children: Tuple[Formula, ...]

    def __init__(self, *children: Formula) -> None:
        flat: List[Formula] = []
        for child in children:
            if isinstance(child, And):
                flat.extend(child.children)
            else:
                flat.append(child)
        if not flat:
            raise QueryError("And needs at least one child")
        object.__setattr__(self, "children", tuple(flat))

    def free_variables(self) -> frozenset:
        result: frozenset = frozenset()
        for child in self.children:
            result |= child.free_variables()
        return result


@dataclass(frozen=True)
class Or(Formula):
    """Disjunction of sub-formulas."""

    children: Tuple[Formula, ...]

    def __init__(self, *children: Formula) -> None:
        if not children:
            raise QueryError("Or needs at least one child")
        object.__setattr__(self, "children", tuple(children))

    def free_variables(self) -> frozenset:
        result: frozenset = frozenset()
        for child in self.children:
            result |= child.free_variables()
        return result


@dataclass(frozen=True)
class Not(Formula):
    """Negation; evaluated only when its free variables are bound."""

    child: Formula

    def free_variables(self) -> frozenset:
        return self.child.free_variables()


class Domain(abc.ABC):
    """A finite quantifier domain, resolved against the evaluation context."""

    @abc.abstractmethod
    def values(self, context) -> Iterable[Any]:
        """Enumerate the domain's values."""


@dataclass(frozen=True)
class ExplicitDomain(Domain):
    """A literal finite domain."""

    items: Tuple[Any, ...]

    def __init__(self, items: Iterable[Any]) -> None:
        object.__setattr__(self, "items", tuple(items))

    def values(self, context) -> Iterable[Any]:
        return self.items


@dataclass(frozen=True)
class Exists(Formula):
    """``∃ var ∈ domain: child``."""

    var: Var
    domain: Domain
    child: Formula

    def free_variables(self) -> frozenset:
        return self.child.free_variables() - {self.var.name}


@dataclass(frozen=True)
class ForAll(Formula):
    """``∀ var ∈ domain: child``."""

    var: Var
    domain: Domain
    child: Formula

    def free_variables(self) -> frozenset:
        return self.child.free_variables() - {self.var.name}


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


class Atom(Formula):
    """An atomic formula.

    Atoms support two evaluation modes used by the backtracking solver:

    * :meth:`check` — all free variables bound: return a boolean;
    * :meth:`enumerate_bindings` — some variables unbound: yield extensions
      of the environment that satisfy the atom, or raise
      :class:`QueryError` when the atom cannot enumerate in the current
      binding pattern.
    """

    @abc.abstractmethod
    def check(self, context, env: Dict[str, Any]) -> bool:
        """Decide the atom under a fully binding environment."""

    def enumerate_bindings(
        self, context, env: Dict[str, Any]
    ) -> Iterator[Dict[str, Any]]:
        """Yield satisfying extensions of ``env``.

        The default implementation only works when everything is bound.
        """
        if self.check(context, env):
            yield env

    def can_enumerate(self, env: Dict[str, Any]) -> bool:
        """True when the atom can produce bindings under ``env``."""
        return all(is_bound(t, env) for t in self._terms())

    @abc.abstractmethod
    def _terms(self) -> Tuple:
        """The atom's term slots (for free-variable computation)."""

    def free_variables(self) -> frozenset:
        return _terms_free(*self._terms())


@dataclass(frozen=True)
class Moft(Atom):
    """The relation atom ``FM(oid, t, x, y)``.

    Enumerates MOFT rows, binding whichever of the four terms are unbound;
    with all terms bound it checks membership.
    """

    oid: "Var | Const"
    t: "Var | Const"
    x: "Var | Const"
    y: "Var | Const"
    moft_name: str = "FM"

    def _terms(self) -> Tuple:
        return (self.oid, self.t, self.x, self.y)

    def can_enumerate(self, env: Dict[str, Any]) -> bool:
        return True  # the MOFT is always enumerable

    def check(self, context, env: Dict[str, Any]) -> bool:
        # A binary search over the object's time-sorted rows; (oid, t)
        # keys a MOFT row, so the sample at t is the only candidate.
        moft = context.moft(self.moft_name)
        oid = term_value(self.oid, env)
        if not moft.sample_count(oid):
            return False
        position = moft.position(oid, float(term_value(self.t, env)))
        return position is not None and (position.x, position.y) == (
            float(term_value(self.x, env)),
            float(term_value(self.y, env)),
        )

    def enumerate_bindings(self, context, env):
        moft = context.moft(self.moft_name)
        slots = self._terms()
        names = ("oid", "t", "x", "y")
        for row in moft.tuples():
            new_env = dict(env)
            ok = True
            for slot, value in zip(slots, row):
                if is_bound(slot, new_env):
                    bound = term_value(slot, new_env)
                    if isinstance(value, float) and not isinstance(bound, str):
                        if float(bound) != value:
                            ok = False
                            break
                    elif bound != value:
                        ok = False
                        break
                else:
                    new_env[slot.name] = value
            if ok:
                yield new_env


@dataclass(frozen=True)
class TimeRollup(Atom):
    """``R^{level}_{timeId}(t) = member`` — a Time-dimension rollup atom."""

    t: "Var | Const"
    level: str
    member: "Var | Const"

    def _terms(self) -> Tuple:
        return (self.t, self.member)

    def can_enumerate(self, env: Dict[str, Any]) -> bool:
        return is_bound(self.t, env)

    def check(self, context, env) -> bool:
        t = term_value(self.t, env)
        member = term_value(self.member, env)
        return context.time.matches(t, self.level, member)

    def enumerate_bindings(self, context, env):
        if not is_bound(self.t, env):
            raise QueryError("TimeRollup cannot enumerate instants; bind t first")
        t = term_value(self.t, env)
        rolled = context.time.try_rollup(t, self.level)
        if rolled is None:
            return
        if is_bound(self.member, env):
            if term_value(self.member, env) == rolled:
                yield env
            return
        new_env = dict(env)
        new_env[self.member.name] = rolled
        yield new_env


@dataclass(frozen=True)
class TimeRollupCompare(Atom):
    """``R^{level}(t) op constant`` — numeric constraints over rollups.

    The paper's query 7 compares the hour rollup: ``h >= 8 ∧ h <= 10``.
    """

    t: "Var | Const"
    level: str
    op: str
    value: Any

    def _terms(self) -> Tuple:
        return (self.t,)

    def check(self, context, env) -> bool:
        t = term_value(self.t, env)
        rolled = context.time.try_rollup(t, self.level)
        if rolled is None:
            return False
        return parse_operator(self.op)(rolled, self.value)


@dataclass(frozen=True)
class PointIn(Atom):
    """``r^{Pt,kind}_{layer}(x, y, g)`` — the infinite point rollup relation.

    With ``(x, y)`` bound it enumerates (or checks) the containing
    geometry ids through the layer's spatial index.
    """

    x: "Var | Const"
    y: "Var | Const"
    layer: str
    kind: str
    gid: "Var | Const"

    def _terms(self) -> Tuple:
        return (self.x, self.y, self.gid)

    def can_enumerate(self, env: Dict[str, Any]) -> bool:
        return is_bound(self.x, env) and is_bound(self.y, env)

    def check(self, context, env) -> bool:
        gids = self._locate(context, env)
        return term_value(self.gid, env) in gids

    def enumerate_bindings(self, context, env):
        if not (is_bound(self.x, env) and is_bound(self.y, env)):
            raise QueryError("PointIn needs x and y bound to enumerate")
        gids = self._locate(context, env)
        if is_bound(self.gid, env):
            if term_value(self.gid, env) in gids:
                yield env
            return
        for gid in gids:
            new_env = dict(env)
            new_env[self.gid.name] = gid
            yield new_env

    def _locate(self, context, env):
        from repro.geometry.point import Point

        point = Point(
            float(term_value(self.x, env)), float(term_value(self.y, env))
        )
        return context.locate_point(self.layer, self.kind, point)


@dataclass(frozen=True)
class Alpha(Atom):
    """``α^{attribute}(member) = gid`` — the application/geometry bridge."""

    attribute: str
    member: "Var | Const"
    gid: "Var | Const"

    def _terms(self) -> Tuple:
        return (self.member, self.gid)

    def can_enumerate(self, env: Dict[str, Any]) -> bool:
        return True  # α is a finite function; enumerable in any pattern

    def check(self, context, env) -> bool:
        member = term_value(self.member, env)
        try:
            gid = context.gis.alpha(self.attribute, member)
        except Exception:
            return False
        return gid == term_value(self.gid, env)

    def enumerate_bindings(self, context, env):
        member_bound = is_bound(self.member, env)
        gid_bound = is_bound(self.gid, env)
        if member_bound:
            member = term_value(self.member, env)
            if member not in context.gis.alpha_members(self.attribute):
                return
            gid = context.gis.alpha(self.attribute, member)
            if gid_bound:
                if gid == term_value(self.gid, env):
                    yield env
                return
            new_env = dict(env)
            new_env[self.gid.name] = gid
            yield new_env
            return
        if gid_bound:
            gid = term_value(self.gid, env)
            for member in context.gis.alpha_inverse(self.attribute, gid):
                new_env = dict(env)
                new_env[self.member.name] = member
                yield new_env
            return
        for member in context.gis.alpha_members(self.attribute):
            gid = context.gis.alpha(self.attribute, member)
            new_env = dict(env)
            new_env[self.member.name] = member
            new_env[self.gid.name] = gid
            yield new_env


@dataclass(frozen=True)
class Compare(Atom):
    """``lhs op rhs`` over values, including member fields (``n.income``)."""

    lhs: Any  # Var | Const | MemberValue
    op: str
    rhs: Any  # Var | Const | MemberValue

    def _terms(self) -> Tuple:
        return (self.lhs, self.rhs)

    def check(self, context, env) -> bool:
        return parse_operator(self.op)(
            self._resolve(self.lhs, context, env),
            self._resolve(self.rhs, context, env),
        )

    @staticmethod
    def _resolve(expr, context, env):
        if isinstance(expr, MemberValue):
            member = term_value(expr.member, env)
            return context.gis.member_value(
                expr.attribute, member, expr.field_name
            )
        return term_value(expr, env)

    def free_variables(self) -> frozenset:
        return _terms_free(self.lhs, self.rhs)


@dataclass(frozen=True)
class GeometryRelation(Atom):
    """A cross-layer geometric predicate between identified elements.

    ``predicate(geom(layer_a, kind_a, gid_a), geom(layer_b, kind_b, gid_b))``
    with predicate ∈ {intersects, contains, within}.  Evaluation goes
    through the context, which routes to either the precomputed overlay
    (Piet strategy) or direct geometry tests (naive strategy).
    """

    layer_a: str
    kind_a: str
    gid_a: "Var | Const"
    predicate: str
    layer_b: str
    kind_b: str
    gid_b: "Var | Const"

    def _terms(self) -> Tuple:
        return (self.gid_a, self.gid_b)

    def can_enumerate(self, env: Dict[str, Any]) -> bool:
        return True  # relation over finite id sets

    def check(self, context, env) -> bool:
        return context.geometry_related(
            self.layer_a,
            self.kind_a,
            term_value(self.gid_a, env),
            self.predicate,
            self.layer_b,
            self.kind_b,
            term_value(self.gid_b, env),
        )

    def enumerate_bindings(self, context, env):
        pairs = context.geometry_pairs(
            self.layer_a, self.kind_a, self.predicate, self.layer_b, self.kind_b
        )
        a_bound = is_bound(self.gid_a, env)
        b_bound = is_bound(self.gid_b, env)
        for id_a, id_b in pairs:
            if a_bound and term_value(self.gid_a, env) != id_a:
                continue
            if b_bound and term_value(self.gid_b, env) != id_b:
                continue
            new_env = dict(env)
            if not a_bound:
                new_env[self.gid_a.name] = id_a
            if not b_bound:
                new_env[self.gid_b.name] = id_b
            yield new_env


@dataclass(frozen=True)
class WithinDistance(Atom):
    """``(x - x_g)² + (y - y_g)² ≤ radius²`` against a node element.

    The proximity constraint of queries 6 and 7 ("within a radius of 100m
    from schools", "less than four meters away from the tram stop"); the
    reference point is the location of node ``gid`` in (layer, kind).
    """

    x: "Var | Const"
    y: "Var | Const"
    layer: str
    kind: str
    gid: "Var | Const"
    radius: float

    def _terms(self) -> Tuple:
        return (self.x, self.y, self.gid)

    def can_enumerate(self, env: Dict[str, Any]) -> bool:
        return is_bound(self.x, env) and is_bound(self.y, env)

    def check(self, context, env) -> bool:
        from repro.geometry.point import Point

        node = context.gis.layer(self.layer).element(
            self.kind, term_value(self.gid, env)
        )
        p = Point(float(term_value(self.x, env)), float(term_value(self.y, env)))
        return node.distance_to(p) <= self.radius + 1e-12

    def enumerate_bindings(self, context, env):
        from repro.geometry.point import Point

        if not (is_bound(self.x, env) and is_bound(self.y, env)):
            raise QueryError("WithinDistance needs x and y bound")
        p = Point(float(term_value(self.x, env)), float(term_value(self.y, env)))
        elements = context.gis.layer(self.layer).elements(self.kind)
        if is_bound(self.gid, env):
            if self.check(context, env):
                yield env
            return
        for gid, node in elements.items():
            if node.distance_to(p) <= self.radius + 1e-12:
                new_env = dict(env)
                new_env[self.gid.name] = gid
                yield new_env


class TrajectoryAtom(Atom):
    """An atom relating the trajectory of ``oid`` to element ``gid`` of
    ``(layer, kind)``.

    Subclasses are dataclasses with ``oid``, ``layer``, ``kind``, ``gid``
    and ``moft_name`` fields and define only :meth:`_holds`, one
    ``EvaluationContext.trajectory_*`` call.  With ``oid`` bound the atom
    checks a bound ``gid`` or enumerates the layer's element ids.
    """

    @abc.abstractmethod
    def _holds(self, context, oid: Hashable, gid: Hashable) -> bool:
        """Decide the relation for one object and one element id."""

    def _terms(self) -> Tuple:
        return (self.oid, self.gid)

    def can_enumerate(self, env: Dict[str, Any]) -> bool:
        return is_bound(self.oid, env)

    def check(self, context, env) -> bool:
        return self._holds(
            context, term_value(self.oid, env), term_value(self.gid, env)
        )

    def enumerate_bindings(self, context, env):
        if not is_bound(self.oid, env):
            raise QueryError(f"{type(self).__name__} needs oid bound")
        oid = term_value(self.oid, env)
        if is_bound(self.gid, env):
            if self._holds(context, oid, term_value(self.gid, env)):
                yield env
            return
        for gid in context.gis.layer(self.layer).elements(self.kind):
            if self._holds(context, oid, gid):
                new_env = dict(env)
                new_env[self.gid.name] = gid
                yield new_env


@dataclass(frozen=True)
class TrajectoryIntersects(TrajectoryAtom):
    """The interpolated trajectory of ``oid`` meets geometry ``gid``.

    This packages the paper's explicit interpolation subformula (queries 5
    and 6: ``x = ((t2-t) x1 + (t-t1) x2)/(t2-t1) ∧ …``) into one atom: it
    holds when some point of ``LIT(S_oid)`` lies in the geometry.
    """

    oid: "Var | Const"
    layer: str
    kind: str
    gid: "Var | Const"
    moft_name: str = "FM"

    def _holds(self, context, oid, gid) -> bool:
        return context.trajectory_intersects(
            self.moft_name, oid, self.layer, self.kind, gid
        )


@dataclass(frozen=True)
class PossiblyThrough(TrajectoryAtom):
    """Uncertainty-aware pass-through: the lifeline beads of ``oid`` (for a
    maximum speed) intersect geometry ``gid``.

    Where :class:`TrajectoryIntersects` assumes the linear-interpolation
    reconstruction, this atom uses the Hornsby–Egenhofer uncertainty model
    the paper cites: it holds whenever the object *could* have entered the
    geometry between observations without exceeding ``max_speed``.  It is
    therefore a superset of TrajectoryIntersects for any feasible speed.
    """

    oid: "Var | Const"
    layer: str
    kind: str
    gid: "Var | Const"
    max_speed: float
    moft_name: str = "FM"

    def _holds(self, context, oid, gid) -> bool:
        return context.trajectory_possibly_through(
            self.moft_name, oid, self.layer, self.kind, gid, self.max_speed
        )


@dataclass(frozen=True)
class TrajectoryWithinDistance(TrajectoryAtom):
    """The interpolated trajectory of ``oid`` comes within ``radius`` of node ``gid``."""

    oid: "Var | Const"
    layer: str
    kind: str
    gid: "Var | Const"
    radius: float
    moft_name: str = "FM"

    def _holds(self, context, oid, gid) -> bool:
        return context.trajectory_within_distance(
            self.moft_name, oid, self.layer, self.kind, gid, self.radius
        )
