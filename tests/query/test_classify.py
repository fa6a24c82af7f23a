"""Tests for the Section 3.1 query-type taxonomy."""

import pytest

from repro.query import QueryType, RegionBuilder, classify
from repro.query.ast import (
    Alpha,
    And,
    Compare,
    Const,
    MemberValue,
    Moft,
    Or,
    PointIn,
    PossiblyThrough,
    TimeRollup,
    TrajectoryIntersects,
    TrajectoryWithinDistance,
    Var,
    WithinDistance,
)
from repro.query.region import SpatioTemporalRegion
from repro.synth.paperdata import figure1_instance

OID, T, X, Y = Var("oid"), Var("t"), Var("x"), Var("y")
PG, N = Var("pg"), Var("n")


@pytest.fixture(scope="module")
def world():
    return figure1_instance()


class TestDescriptions:
    def test_every_type_described(self):
        for query_type in QueryType:
            assert query_type.description

    def test_int_values_match_paper(self):
        assert QueryType.SPATIAL_AGGREGATION == 1
        assert QueryType.TRAJECTORY_AGGREGATION == 8


class TestClassification:
    def test_type1_spatial_only(self):
        region = SpatioTemporalRegion(
            ("pg",),
            And(
                Alpha("neighborhood", N, PG),
            ),
        )
        assert classify(region) is QueryType.SPATIAL_AGGREGATION

    def test_type2_spatial_with_numeric(self):
        region = SpatioTemporalRegion(
            ("pg",),
            And(
                Alpha("neighborhood", N, PG),
                Compare(
                    MemberValue("neighborhood", N, "income"), "<", Const(1500)
                ),
            ),
        )
        assert classify(region) is QueryType.SPATIAL_WITH_NUMERIC

    def test_type3_samples_only(self):
        region = SpatioTemporalRegion(
            ("oid", "t"),
            And(
                Moft(OID, T, X, Y, "FMbus"),
                TimeRollup(T, "timeOfDay", Const("Morning")),
            ),
        )
        assert classify(region) is QueryType.TRAJECTORY_SAMPLES

    def test_type4_samples_with_geometry(self, world):
        region = (
            RegionBuilder()
            .from_moft("FMbus")
            .during("timeOfDay", "Morning")
            .in_attribute_polygon("neighborhood")
            .build(world.gis)
        )
        assert classify(region) is QueryType.SAMPLES_WITH_GEOMETRY

    def test_type5_aggregated_region_flag(self, world):
        region = (
            RegionBuilder()
            .from_moft("FMbus")
            .in_attribute_polygon("neighborhood")
            .build(world.gis)
        )
        assert (
            classify(region, region_uses_aggregation=True)
            is QueryType.SAMPLES_WITH_AGGREGATED_REGION
        )

    def test_type6_time_fixed(self, world):
        region = (
            RegionBuilder()
            .from_moft("FMbus", at_instant=3)
            .in_attribute_polygon("neighborhood", member="berchem")
            .build(world.gis)
        )
        assert classify(region) is QueryType.TRAJECTORY_AS_SPATIAL_OBJECT

    def test_type7_trajectory(self, world):
        region = SpatioTemporalRegion(
            ("oid",),
            And(
                Moft(OID, T, X, Y, "FMbus"),
                TrajectoryIntersects(OID, "Ln", "polygon", PG, "FMbus"),
            ),
        )
        assert classify(region) is QueryType.TRAJECTORY_QUERY

    def test_type8_flag(self, world):
        region = (
            RegionBuilder()
            .from_moft("FMbus")
            .in_attribute_polygon("neighborhood")
            .build(world.gis)
        )
        assert (
            classify(region, aggregates_trajectory_measure=True)
            is QueryType.TRAJECTORY_AGGREGATION
        )

    def test_builder_trajectory_through(self, world):
        region = (
            RegionBuilder()
            .from_moft("FMbus")
            .trajectory_through_attribute("neighborhood", moft_name="FMbus")
            .build(world.gis)
        )
        assert classify(region) is QueryType.TRAJECTORY_QUERY


def _nodes(formula):
    yield formula
    for child in getattr(formula, "children", ()):
        yield from _nodes(child)
    if hasattr(formula, "child"):
        yield from _nodes(formula.child)


class TestTrajectoryAtomsAreType7:
    """Every trajectory atom makes a MOFT region a trajectory query."""

    @pytest.mark.parametrize(
        "atom",
        [
            TrajectoryIntersects(OID, "Ln", "polygon", PG, "FMbus"),
            TrajectoryWithinDistance(OID, "Ls", "node", PG, 1.0, "FMbus"),
            PossiblyThrough(OID, "Ln", "polygon", PG, 2.0, "FMbus"),
        ],
        ids=lambda atom: type(atom).__name__,
    )
    def test_moft_and_trajectory_atom(self, atom):
        region = SpatioTemporalRegion(
            ("oid",), And(Moft(OID, T, X, Y, "FMbus"), atom)
        )
        assert classify(region) is QueryType.TRAJECTORY_QUERY


G0, M1 = Var("g0"), Var("m1")
MOFT_ATOM = Moft(OID, T, X, Y, "FMbus")
LOW_INCOME = Compare(
    MemberValue("neighborhood", M1, "income"), "<", Const(1500)
)

#: Every RegionBuilder placement method, and the formula it stands for.
PLACEMENTS = {
    "in_attribute_geometry": (
        lambda b: b.in_attribute_geometry("neighborhood", "polygon"),
        And(MOFT_ATOM, PointIn(X, Y, "Ln", "polygon", G0),
            Alpha("neighborhood", M1, G0)),
    ),
    "in_attribute_polygon": (
        lambda b: b.in_attribute_polygon(
            "neighborhood", value_filter=("income", "<", 1500)
        ),
        And(MOFT_ATOM, PointIn(X, Y, "Ln", "polygon", G0),
            Alpha("neighborhood", M1, G0), LOW_INCOME),
    ),
    "at_poi": (
        lambda b: b.at_poi("place", member="market"),
        And(MOFT_ATOM, PointIn(X, Y, "Lp", "poi", G0),
            Alpha("place", Const("market"), G0)),
    ),
    "where_member": (
        lambda b: b.where_member("neighborhood", ["zuid", "centrum"]),
        And(MOFT_ATOM, PointIn(X, Y, "Ln", "polygon", G0),
            Alpha("neighborhood", M1, G0),
            Or(Compare(M1, "=", Const("zuid")),
               Compare(M1, "=", Const("centrum")))),
    ),
    "near_attribute_node": (
        lambda b: b.near_attribute_node("school", 8.0, member="south-school"),
        And(MOFT_ATOM, Alpha("school", Const("south-school"), G0),
            WithinDistance(X, Y, "Ls", "node", G0, 8.0)),
    ),
    "trajectory_through_attribute": (
        lambda b: b.trajectory_through_attribute(
            "neighborhood", value_filter=("income", "<", 1500),
            moft_name="FMbus",
        ),
        And(MOFT_ATOM, Alpha("neighborhood", M1, G0),
            TrajectoryIntersects(OID, "Ln", "polygon", G0, "FMbus"),
            LOW_INCOME),
    ),
    "trajectory_near_attribute_node": (
        lambda b: b.trajectory_near_attribute_node(
            "school", 1.0, member="north-school", moft_name="FMbus"
        ),
        And(MOFT_ATOM, Alpha("school", Const("north-school"), G0),
            TrajectoryWithinDistance(OID, "Ls", "node", G0, 1.0, "FMbus")),
    ),
}


class TestBuiltRegions:
    """A region from ``RegionBuilder.build(gis)`` is its hand-written
    formula: only ``repro.query.ast`` nodes, and the same type."""

    @pytest.mark.parametrize("method", sorted(PLACEMENTS))
    def test_built_region_is_the_hand_written_formula(self, world, method):
        place, formula = PLACEMENTS[method]
        region = place(RegionBuilder().from_moft("FMbus")).build(world.gis)
        modules = {type(node).__module__ for node in _nodes(region.formula)}
        assert modules == {"repro.query.ast"}
        assert region.formula == formula
        hand_written = SpatioTemporalRegion(region.output_variables, formula)
        assert classify(region) is classify(hand_written)

    def test_every_placement_method_is_covered(self):
        placement_methods = {
            name for name in vars(RegionBuilder)
            if not name.startswith("_")
        } - {"from_moft", "during", "where_time", "filter", "output",
             "build", "explain", "count_query"}
        assert placement_methods == set(PLACEMENTS)
