"""A fluent builder for the paper's query patterns.

Section 4's example queries all share a shape: bind MOFT samples, constrain
the instant through Time rollups, constrain the position through the
geometry and the application part, project to ``(Oid, t, …)`` and
aggregate.  :class:`RegionBuilder` composes that shape without writing AST
nodes by hand::

    region = (
        RegionBuilder()
        .from_moft("FM")
        .during("timeOfDay", "Morning")
        .in_attribute_polygon("neighborhood", value_filter=("income", "<", 1500))
        .build(gis)
    )

The builder produces an ordinary :class:`SpatioTemporalRegion`, so built
queries interoperate with hand-written formulas.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Hashable, List, Optional, Sequence, Tuple

from repro.errors import QueryError
from repro.query import ast
from repro.query.aggregate import AggregateSpec, MovingObjectAggregateQuery
from repro.query.region import SpatioTemporalRegion


class RegionBuilder:
    """Accumulates conjuncts over the canonical variables ``oid, t, x, y``."""

    def __init__(self) -> None:
        # Formulas, and ``gis -> atom`` makers that build() calls once.
        self._conjuncts: List[Any] = []
        self._outputs: Tuple[str, ...] = ("oid", "t")
        self._has_moft = False
        self._fresh = itertools.count()
        self.oid = ast.Var("oid")
        self.t = ast.Var("t")
        self.x = ast.Var("x")
        self.y = ast.Var("y")

    def _gensym(self, prefix: str) -> ast.Var:
        return ast.Var(f"{prefix}{next(self._fresh)}")

    def _member_term(self, member: Optional[Hashable]) -> "ast.Var | ast.Const":
        """The given member as a constant, else a fresh variable."""
        if member is not None:
            return ast.Const(member)
        return self._gensym("m")

    def _value_filter(
        self,
        attribute: str,
        member_term: "ast.Var | ast.Const",
        value_filter: Optional[Tuple[str, str, Any]],
    ) -> None:
        """Append ``member.field op value`` when a filter is given."""
        if value_filter is not None:
            field_name, op, value = value_filter
            self._conjuncts.append(
                ast.Compare(
                    ast.MemberValue(attribute, member_term, field_name),
                    op,
                    ast.Const(value),
                )
            )

    def _placed(
        self, attribute: str, make: Callable[[Any], ast.Atom]
    ) -> None:
        """Record an atom that ``build`` makes from the attribute's
        placement (its layer and geometry kind)."""
        self._conjuncts.append(
            lambda gis: make(gis.schema.placement(attribute))
        )

    # -- sources --------------------------------------------------------------

    def from_moft(
        self, moft_name: str = "FM", at_instant: Optional[float] = None
    ) -> "RegionBuilder":
        """Bind ``(oid, t, x, y)`` to MOFT rows.

        ``at_instant`` fixes the instant (Type-6 queries: "how many cars at
        9:15 on Jan 7"); the ``t`` output column then carries the constant.
        """
        t_term: "ast.Var | ast.Const" = self.t
        if at_instant is not None:
            t_term = ast.Const(float(at_instant))
        self._conjuncts.append(
            ast.Moft(self.oid, t_term, self.x, self.y, moft_name)
        )
        if at_instant is not None:
            self._outputs = tuple(c for c in self._outputs if c != "t")
            if not self._outputs:
                self._outputs = ("oid",)
        self._has_moft = True
        return self

    # -- temporal constraints ------------------------------------------------------

    def during(self, level: str, member: Hashable) -> "RegionBuilder":
        """Require ``R^{level}(t) = member`` (e.g. timeOfDay = Morning)."""
        self._conjuncts.append(ast.TimeRollup(self.t, level, ast.Const(member)))
        return self

    def where_time(self, level: str, op: str, value: Any) -> "RegionBuilder":
        """Require ``R^{level}(t) op value`` (e.g. hour >= 8)."""
        self._conjuncts.append(ast.TimeRollupCompare(self.t, level, op, value))
        return self

    # -- spatial constraints ----------------------------------------------------------

    def in_attribute_polygon(
        self,
        attribute: str,
        member: Optional[Hashable] = None,
        value_filter: Optional[Tuple[str, str, Any]] = None,
    ) -> "RegionBuilder":
        """Sample position inside the polygon of an application member.

        Emits the paper's pattern ``r^{Pt,Pg}_L(x, y, pg) ∧ α(n) = pg`` plus
        optionally ``n.field op value`` or ``n = member``.
        """
        from repro.gis import POLYGON

        return self.in_attribute_geometry(
            attribute, POLYGON, member=member, value_filter=value_filter
        )

    def at_poi(
        self,
        attribute: str,
        member: Optional[Hashable] = None,
        value_filter: Optional[Tuple[str, str, Any]] = None,
    ) -> "RegionBuilder":
        """Sample position inside a place-of-interest disc.

        The POI counterpart of :meth:`in_attribute_polygon`: emits the
        containment pattern against a ``poi``-kind placement (closed
        disc membership).  Aggregate POI questions (visits, distinct
        visitors, top-k) live in :mod:`repro.query.poi`; this condition
        slots POI membership into arbitrary region formulas.
        """
        from repro.gis import geometries as gk

        return self.in_attribute_geometry(
            attribute, gk.POI, member=member, value_filter=value_filter
        )

    def in_attribute_geometry(
        self,
        attribute: str,
        kind: str,
        member: Optional[Hashable] = None,
        value_filter: Optional[Tuple[str, str, Any]] = None,
        layer: Optional[str] = None,
    ) -> "RegionBuilder":
        """Generalized containment against any geometry kind.

        ``layer`` is normally inferred from the attribute placement at
        build time and can be passed explicitly only to override.
        """
        gid = self._gensym("g")
        member_term = self._member_term(member)
        self._placed(
            attribute,
            lambda p: ast.PointIn(
                self.x, self.y, layer or p.layer, kind or p.kind, gid
            ),
        )
        self._conjuncts.append(ast.Alpha(attribute, member_term, gid))
        self._value_filter(attribute, member_term, value_filter)
        return self

    def near_attribute_node(
        self,
        attribute: str,
        radius: float,
        member: Optional[Hashable] = None,
    ) -> "RegionBuilder":
        """Sample position within ``radius`` of a node-placed member.

        Queries 6 and 7: near schools / near the Groenplaats tram stop.
        """
        gid = self._gensym("g")
        member_term = self._member_term(member)
        self._conjuncts.append(ast.Alpha(attribute, member_term, gid))
        self._placed(
            attribute,
            lambda p: ast.WithinDistance(
                self.x, self.y, p.layer, p.kind, gid, radius
            ),
        )
        return self

    def trajectory_through_attribute(
        self,
        attribute: str,
        member: Optional[Hashable] = None,
        value_filter: Optional[Tuple[str, str, Any]] = None,
        moft_name: str = "FM",
    ) -> "RegionBuilder":
        """Interpolated trajectory intersects the member's geometry (Type 7)."""
        gid = self._gensym("g")
        member_term = self._member_term(member)
        self._conjuncts.append(ast.Alpha(attribute, member_term, gid))
        self._placed(
            attribute,
            lambda p: ast.TrajectoryIntersects(
                self.oid, p.layer, p.kind, gid, moft_name
            ),
        )
        self._value_filter(attribute, member_term, value_filter)
        return self

    def trajectory_near_attribute_node(
        self,
        attribute: str,
        radius: float,
        member: Optional[Hashable] = None,
        moft_name: str = "FM",
    ) -> "RegionBuilder":
        """Interpolated trajectory within ``radius`` of a node member."""
        gid = self._gensym("g")
        member_term = self._member_term(member)
        self._conjuncts.append(ast.Alpha(attribute, member_term, gid))
        self._placed(
            attribute,
            lambda p: ast.TrajectoryWithinDistance(
                self.oid, p.layer, p.kind, gid, radius, moft_name
            ),
        )
        return self

    def where_member(
        self, attribute: str, members: Sequence[Hashable], kind: Optional[str] = None
    ) -> "RegionBuilder":
        """Restrict positions to the polygons of an explicit member list."""
        gid = self._gensym("g")
        member_term = self._gensym("m")
        self._placed(
            attribute,
            lambda p: ast.PointIn(self.x, self.y, p.layer, kind or p.kind, gid),
        )
        self._conjuncts.append(ast.Alpha(attribute, member_term, gid))
        self._conjuncts.append(
            ast.Or(
                *[
                    ast.Compare(member_term, "=", ast.Const(m))
                    for m in members
                ]
            )
        )
        return self

    def filter(self, formula: ast.Formula) -> "RegionBuilder":
        """Append an arbitrary formula conjunct (escape hatch)."""
        self._conjuncts.append(formula)
        return self

    # -- projection & build ---------------------------------------------------------------

    def output(self, *columns: str) -> "RegionBuilder":
        """Set the region's output columns (default ``oid, t``)."""
        if not columns:
            raise QueryError("output needs at least one column")
        self._outputs = tuple(columns)
        return self

    def build(self, gis) -> SpatioTemporalRegion:
        """Finalize into a :class:`SpatioTemporalRegion`.

        Each placement-dependent atom takes its layer and geometry kind
        from the attribute's placement in ``gis``, once, here; the region
        holds only :mod:`repro.query.ast` nodes.
        """
        if not self._has_moft:
            raise QueryError(
                "builder regions are MOFT-based; call from_moft() first "
                "(for purely spatial regions use the AST directly)"
            )
        conjuncts = [
            c if isinstance(c, ast.Formula) else c(gis)
            for c in self._conjuncts
        ]
        return SpatioTemporalRegion(self._outputs, ast.And(*conjuncts))

    def explain(self, context) -> str:
        """Describe the region this builder would evaluate: the formula
        tree (:meth:`~repro.query.ast.Formula.describe`) and the path
        :meth:`SpatioTemporalRegion.evaluate` takes on ``context``
        (:meth:`SpatioTemporalRegion.path`).  No row is scanned."""
        region = self.build(context.gis)
        return "\n".join([
            f"Region(outputs={', '.join(region.output_variables)})",
            region.formula.describe(1),
            region.path(context),
        ])

    def count_query(
        self,
        distinct_objects: bool = False,
        group_by: Tuple[str, ...] = (),
        per_span: Optional[Tuple[str, Hashable]] = None,
        *,
        gis,
    ) -> MovingObjectAggregateQuery:
        """Build the region and wrap it in a COUNT aggregate."""
        spec = AggregateSpec(
            measure="oid" if distinct_objects else None,
            distinct=distinct_objects,
            group_by=group_by,
            per_span_level=per_span[0] if per_span else None,
            per_span_member=per_span[1] if per_span else None,
        )
        return MovingObjectAggregateQuery(self.build(gis), spec)

