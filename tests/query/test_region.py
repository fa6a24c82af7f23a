"""Tests for region evaluation against the Figure 1 instance."""

import pytest

from repro.errors import EvaluationError, QueryError
from repro.query import EvaluationContext, SpatioTemporalRegion
from repro.query.ast import (
    Alpha,
    And,
    Compare,
    Const,
    Exists,
    ExplicitDomain,
    ForAll,
    MemberValue,
    Moft,
    Not,
    Or,
    PointIn,
    TimeRollup,
    TimeRollupCompare,
    Var,
    WithinDistance,
)
from repro.synth.paperdata import figure1_instance

OID, T, X, Y = Var("oid"), Var("t"), Var("x"), Var("y")
PG, N = Var("pg"), Var("n")


@pytest.fixture(scope="module")
def world():
    return figure1_instance()


@pytest.fixture()
def ctx(world):
    return world.context()


class TestBasicEvaluation:
    def test_moft_enumeration(self, ctx):
        region = SpatioTemporalRegion(
            ("oid", "t"), And(Moft(OID, T, X, Y, "FMbus"))
        )
        rows = region.evaluate(ctx)
        assert len(rows) == 12

    def test_projection_dedupes(self, ctx):
        region = SpatioTemporalRegion(("oid",), And(Moft(OID, T, X, Y, "FMbus")))
        rows = region.evaluate(ctx)
        assert len(rows) == 6

    def test_output_var_must_be_free(self):
        with pytest.raises(QueryError):
            SpatioTemporalRegion(("zzz",), And(Moft(OID, T, X, Y)))

    def test_needs_output(self):
        with pytest.raises(QueryError):
            SpatioTemporalRegion((), And(Moft(OID, T, X, Y)))

    def test_unknown_moft_raises(self, ctx):
        region = SpatioTemporalRegion(("oid",), And(Moft(OID, T, X, Y, "nope")))
        with pytest.raises(EvaluationError):
            region.evaluate(ctx)


class TestTimeConstraints:
    def test_time_rollup_filter(self, ctx):
        region = SpatioTemporalRegion(
            ("oid", "t"),
            And(
                Moft(OID, T, X, Y, "FMbus"),
                TimeRollup(T, "timeOfDay", Const("Morning")),
            ),
        )
        tuples = region.evaluate_tuples(ctx)
        assert all(t in (2.0, 3.0, 4.0) for _, t in tuples)
        # O1 x3, O2 x3, O5 x1, O6 x2 in the morning instants.
        assert len(tuples) == 9

    def test_time_rollup_binding_member(self, ctx):
        region = SpatioTemporalRegion(
            ("oid", "part"),
            And(
                Moft(OID, T, X, Y, "FMbus"),
                TimeRollup(T, "timeOfDay", Var("part")),
            ),
        )
        parts = {p for _, p in region.evaluate_tuples(ctx)}
        assert parts == {"Morning", "Other"}

    def test_time_rollup_compare(self, ctx):
        region = SpatioTemporalRegion(
            ("oid", "t"),
            And(
                Moft(OID, T, X, Y, "FMbus"),
                TimeRollupCompare(T, "hour", ">=", 5),
            ),
        )
        assert region.evaluate_tuples(ctx) == {("O3", 5.0), ("O4", 6.0)}


class TestSpatialConstraints:
    def low_income_formula(self):
        return And(
            Moft(OID, T, X, Y, "FMbus"),
            PointIn(X, Y, "Ln", "polygon", PG),
            Alpha("neighborhood", N, PG),
            Compare(MemberValue("neighborhood", N, "income"), "<", Const(1500)),
        )

    def test_running_query_region(self, ctx):
        # The paper's C with the morning constraint added.
        region = SpatioTemporalRegion(
            ("oid", "t"),
            And(
                TimeRollup(T, "timeOfDay", Const("Morning")),
                self.low_income_formula(),
            ),
        )
        assert region.evaluate_tuples(ctx) == {
            ("O1", 2.0),
            ("O1", 3.0),
            ("O1", 4.0),
            ("O2", 3.0),
        }

    def test_without_time_constraint(self, ctx):
        region = SpatioTemporalRegion(("oid", "t"), self.low_income_formula())
        # O1 at t=1 also counts without the morning restriction.
        assert region.evaluate_tuples(ctx) == {
            ("O1", 1.0),
            ("O1", 2.0),
            ("O1", 3.0),
            ("O1", 4.0),
            ("O2", 3.0),
        }

    def test_region_with_geometry_output(self, ctx):
        region = SpatioTemporalRegion(
            ("oid", "t", "pg"),
            And(
                Moft(OID, T, X, Y, "FMbus"),
                PointIn(X, Y, "Ln", "polygon", PG),
            ),
        )
        rows = region.evaluate(ctx)
        assert len(rows) == 12  # every sample is in exactly one polygon
        assert {"oid", "t", "pg"} == set(rows[0])

    def test_within_distance(self, ctx):
        # Samples within 8 units of the southern school at (5, 5).
        region = SpatioTemporalRegion(
            ("oid", "t"),
            And(
                Moft(OID, T, X, Y, "FMbus"),
                WithinDistance(
                    X, Y, "Ls", "node", Const("nd_school_south"), 8.0
                ),
            ),
        )
        tuples = region.evaluate_tuples(ctx)
        # O1's four samples and O2's (4, 6) are within 8 of (5, 5).
        assert ("O1", 1.0) in tuples
        assert ("O2", 3.0) in tuples
        assert ("O3", 5.0) not in tuples

    def test_within_distance_enumerates_schools(self, ctx):
        region = SpatioTemporalRegion(
            ("oid", "school"),
            And(
                Moft(OID, T, X, Y, "FMbus"),
                WithinDistance(X, Y, "Ls", "node", Var("school"), 8.0),
            ),
        )
        schools = {s for _, s in region.evaluate_tuples(ctx)}
        assert schools == {"nd_school_south", "nd_school_north"}


class TestQuantifiersAndNegation:
    def test_not_excludes(self, ctx):
        # Objects sampled in the morning but never in a low-income area
        # at that instant.
        inner = And(
            PointIn(X, Y, "Ln", "polygon", PG),
            Alpha("neighborhood", N, PG),
            Compare(MemberValue("neighborhood", N, "income"), "<", Const(1500)),
        )
        region = SpatioTemporalRegion(
            ("oid", "t"),
            And(
                Moft(OID, T, X, Y, "FMbus"),
                TimeRollup(T, "timeOfDay", Const("Morning")),
                Not(inner),
            ),
        )
        tuples = region.evaluate_tuples(ctx)
        assert ("O1", 2.0) not in tuples
        assert ("O2", 2.0) in tuples  # O2 in centrum at t=2
        assert ("O5", 3.0) in tuples
        assert ("O6", 2.0) in tuples

    def test_unsafe_output_in_negation_rejected(self, ctx):
        # Negation as failure: a satisfied ¬ cannot bind output variables.
        region = SpatioTemporalRegion(
            ("oid",),
            And(Not(Moft(OID, Const(99.0), X, Y, "FMbus"))),
        )
        with pytest.raises(EvaluationError, match="unsafe"):
            region.evaluate(ctx)

    def test_negation_false_gives_empty(self, ctx):
        # ¬∃(any row) is false on a non-empty MOFT: no solutions, no error.
        region = SpatioTemporalRegion(
            ("oid",),
            And(Not(Moft(OID, T, X, Y, "FMbus"))),
        )
        assert region.evaluate(ctx) == []

    def test_exists_domain(self, ctx):
        # ∃ n ∈ neighborhoods: sample in n's polygon and n is low income.
        formula = And(
            Moft(OID, T, X, Y, "FMbus"),
            Exists(
                N,
                ExplicitDomain(["zuid", "berchem"]),
                And(
                    Alpha("neighborhood", N, PG),
                    PointIn(X, Y, "Ln", "polygon", PG),
                ),
            ),
        )
        region = SpatioTemporalRegion(("oid", "t"), formula)
        tuples = region.evaluate_tuples(ctx)
        assert ("O1", 1.0) in tuples
        assert ("O2", 3.0) in tuples
        assert ("O3", 5.0) not in tuples

    def test_forall(self, ctx):
        # Objects all of whose morning instants... use ForAll over a tiny
        # explicit domain: every instant in {2, 3} must see the object in
        # the MOFT (true for O1, O2, O6 which have samples at both).
        t2 = Var("t2")
        formula = And(
            Moft(OID, T, X, Y, "FMbus"),
            ForAll(
                t2,
                ExplicitDomain([2.0, 3.0]),
                Exists(
                    Var("x2"),
                    ExplicitDomain([]),  # placeholder replaced below
                    Compare(Const(1), "=", Const(1)),
                ),
            ),
        )
        # Simpler, directly meaningful ForAll: every instant in {2,3} has
        # some sample of the object.
        x2, y2 = Var("x2"), Var("y2")
        formula = And(
            Moft(OID, T, X, Y, "FMbus"),
            ForAll(
                t2,
                ExplicitDomain([2.0, 3.0]),
                Moft(OID, t2, x2, y2, "FMbus"),
            ),
        )
        region = SpatioTemporalRegion(("oid",), formula)
        oids = {o for (o,) in region.evaluate_tuples(ctx)}
        assert oids == {"O1", "O2", "O6"}

    def test_disjunction(self, ctx):
        region = SpatioTemporalRegion(
            ("oid", "t"),
            And(
                Moft(OID, T, X, Y, "FMbus"),
                Or(
                    Compare(T, "=", Const(5.0)),
                    Compare(T, "=", Const(6.0)),
                ),
            ),
        )
        assert region.evaluate_tuples(ctx) == {("O3", 5.0), ("O4", 6.0)}


class TestStrategies:
    def test_overlay_and_naive_agree(self, world):
        from repro.query.ast import GeometryRelation

        region = SpatioTemporalRegion(
            ("pg",),
            And(
                Moft(OID, T, X, Y, "FMbus"),
                GeometryRelation(
                    "Ln",
                    "polygon",
                    PG,
                    "intersects",
                    "Lr",
                    "polyline",
                    Const("pl_scheldt"),
                ),
                PointIn(X, Y, "Ln", "polygon", PG),
            ),
        )
        with_overlay = region.evaluate_tuples(world.context(use_overlay=True))
        naive = region.evaluate_tuples(world.context(use_overlay=False))
        assert with_overlay == naive
        assert with_overlay  # the river touches every neighborhood boundary

    def test_stats_tracked(self, world):
        ctx = world.context(use_overlay=False)
        ctx.geometry_pairs("Ln", "polygon", "intersects", "Lr", "polyline")
        assert ctx.obs.count("geometry_checks") > 0
        ctx2 = world.context(use_overlay=True)
        ctx2.geometry_pairs("Ln", "polygon", "intersects", "Lr", "polyline")
        assert ctx2.obs.count("overlay_hits") == 1
