"""The seven example queries of Section 4, executed end to end.

Each test carries the paper's query text and declared type.  Queries about
features absent from the Figure 1 world (streets, big cities, tram stops)
run against purpose-built mini-worlds; the substitutions are noted inline.
"""

from datetime import datetime

import pytest

from repro.geometry import BoundingBox, Point, Polygon, Polyline
from repro.gis import (
    ALL,
    NODE,
    POINT,
    POLYGON,
    POLYLINE,
    AttributePlacement,
    GISDimensionInstance,
    GISDimensionSchema,
    LayerHierarchy,
)
from repro.mo import MOFT
from repro.olap import DimensionSchema
from repro.query import (
    AggregateSpec,
    EvaluationContext,
    MovingObjectAggregateQuery,
    QueryType,
    RegionBuilder,
    aggregate_trajectory_measure,
    classify,
    count_per_group,
    objects_passing_through,
    presence_intervals,
    time_near_node,
    time_spent_in,
)
from repro.query.ast import (
    Alpha,
    And,
    Compare,
    Const,
    MemberValue,
    Moft,
    Not,
    PointIn,
    TimeRollup,
    Var,
)
from repro.query.region import SpatioTemporalRegion
from repro.synth import build_city, CityConfig, figure1_instance
from repro.temporal import TimeDimension, hourly

OID, T, X, Y = Var("oid"), Var("t"), Var("x"), Var("y")


# The mini-worlds of the queries Figure 1 cannot express (also the region
# differential's Section 4 cases, tests/query/test_vectorized.py).


def street_world():
    """Q2's (city, context): three cars on street h1 (y=10), one on v1."""
    city = build_city(CityConfig(cols=2, rows=2, block_size=10, seed=5))
    moft = MOFT("FM")
    moft.add_many(
        [
            ("carA", 0, 2.0, 10.0),
            ("carA", 1, 5.0, 10.0),
            ("carB", 0, 8.0, 10.0),
            ("carB", 1, 12.0, 10.0),
            ("carC", 1, 15.0, 10.0),
            ("carD", 0, 10.0, 3.0),
            ("carD", 1, 10.0, 7.0),
        ]
    )
    time = TimeDimension.from_explicit_rollups(
        [("timeId", t, "hour", t) for t in (0, 1)]
        + [("hour", t, "timeOfDay", "Morning") for t in (0, 1)]
    )
    return city, EvaluationContext(city.gis, time, moft)


def street_region():
    """Q2's region: ``(Oid, t, street)`` triples over the morning."""
    street = Var("s")
    pl = Var("pl")
    return SpatioTemporalRegion(
        ("oid", "t", "s"),
        And(
            Moft(OID, T, X, Y),
            TimeRollup(T, "timeOfDay", Const("Morning")),
            PointIn(X, Y, "Lst", "polyline", pl),
            Alpha("street", street, pl),
        ),
    )


def two_city_world():
    """Q3's context: a big and a small city side by side."""
    schema = GISDimensionSchema(
        [LayerHierarchy("Lc", [(POINT, POLYGON), (POLYGON, ALL)])],
        [AttributePlacement("city", POLYGON, "Lc")],
        [DimensionSchema("Cities", [("city", "country")])],
    )
    gis = GISDimensionInstance(schema)
    gis.add_geometry("Lc", POLYGON, "pg_big", Polygon.rectangle(0, 0, 10, 10))
    gis.add_geometry(
        "Lc", POLYGON, "pg_small", Polygon.rectangle(10, 0, 20, 10)
    )
    gis.set_alpha("city", "bigtown", "pg_big")
    gis.set_alpha("city", "smallville", "pg_small")
    gis.set_member_value("city", "bigtown", "pop", 80_000)
    gis.set_member_value("city", "smallville", "pop", 20_000)
    moft = MOFT("FM")
    moft.add_many(
        [
            # Only ever sampled in bigtown: qualifies.
            ("loyal", 0, 2.0, 5.0),
            ("loyal", 1, 8.0, 5.0),
            # Sampled in bigtown but also in smallville: excluded.
            ("tourist", 0, 5.0, 5.0),
            ("tourist", 1, 15.0, 5.0),
            # Never in bigtown: excluded.
            ("stranger", 0, 18.0, 5.0),
            ("stranger", 1, 19.0, 5.0),
        ]
    )
    time = TimeDimension.from_explicit_rollups(
        [("timeId", t, "hour", t) for t in (0, 1)]
        + [("hour", t, "timeOfDay", "Morning") for t in (0, 1)]
    )
    return EvaluationContext(gis, time, moft)


def completely_through_region():
    """Q3's region: sampled in a big city, never in a small one."""
    c, pg = Var("c"), Var("pg")
    t1, x1, y1, pg1, c1 = (
        Var("t1"),
        Var("x1"),
        Var("y1"),
        Var("pg1"),
        Var("c1"),
    )
    inner = And(
        Moft(OID, t1, x1, y1),
        PointIn(x1, y1, "Lc", "polygon", pg1),
        Alpha("city", c1, pg1),
        Compare(MemberValue("city", c1, "pop"), "<", Const(50_000)),
    )
    return SpatioTemporalRegion(
        ("oid",),
        And(
            Moft(OID, T, X, Y),
            TimeRollup(T, "timeOfDay", Const("Morning")),
            PointIn(X, Y, "Lc", "polygon", pg),
            Alpha("city", c, pg),
            Compare(MemberValue("city", c, "pop"), ">=", Const(50_000)),
            Not(inner),
        ),
    )


def tram_world():
    """Q7's context: hourly instants over Monday 2006-01-09; waiter1 near
    the stop at hours 8 and 9, waiter2 at 9, the walker far."""
    schema = GISDimensionSchema(
        [LayerHierarchy("Lbus", [(POINT, NODE), (NODE, ALL)])],
        [AttributePlacement("stop", NODE, "Lbus")],
    )
    gis = GISDimensionInstance(schema)
    gis.add_geometry("Lbus", NODE, "nd_groenplaats", Point(50.0, 50.0))
    gis.set_alpha("stop", "Groenplaats", "nd_groenplaats")
    moft = MOFT("FM")
    moft.add_many(
        [
            ("waiter1", 8, 51.0, 50.0),
            ("waiter1", 9, 50.5, 49.5),
            ("waiter2", 9, 48.0, 50.0),
            ("waiter2", 10, 47.0, 50.0),
            ("walker", 8, 10.0, 10.0),
            ("walker", 9, 90.0, 90.0),
        ]
    )
    mapping = hourly(datetime(2006, 1, 9, 0, 0))
    time = TimeDimension.from_mapping(mapping, range(24))
    return EvaluationContext(gis, time, moft)


def tram_waiting_region(ctx):
    """Q7's region: within four meters of the stop, 8:00-10:00 on weekday
    mornings."""
    return (
        RegionBuilder()
        .from_moft("FM")
        .during("timeOfDay", "Morning")
        .during("typeOfDay", "Weekday")
        .where_time("hour", ">=", 8)
        .where_time("hour", "<=", 10)
        .near_attribute_node("stop", 4.0, member="Groenplaats")
        .build(ctx.gis)
    )


@pytest.fixture(scope="module")
def world():
    return figure1_instance()


class TestQuery1RegionCount:
    """Q1 (Type 4): 'Give me the number of cars in region South of Antwerp
    on Wednesday morning.'  Region South := the low-income southern
    neighborhood 'zuid'; the toy calendar's single day stands in for
    Wednesday."""

    def test_count(self, world):
        ctx = world.context()
        query = (
            RegionBuilder()
            .from_moft("FMbus")
            .during("timeOfDay", "Morning")
            .during("typeOfDay", "Weekday")
            .in_attribute_polygon("neighborhood", member="zuid")
            .count_query(distinct_objects=True, gis=world.gis)
        )
        # O1 (t=2,3,4) and O2 (t=3) are sampled in zuid in the morning.
        assert query.run_scalar(ctx) == 2

    def test_type(self, world):
        region = (
            RegionBuilder()
            .from_moft("FMbus")
            .during("timeOfDay", "Morning")
            .in_attribute_polygon("neighborhood", member="zuid")
            .build(world.gis)
        )
        assert classify(region) is QueryType.SAMPLES_WITH_GEOMETRY


class TestQuery2StreetDensity:
    """Q2 (Type 4): 'Give me the maximal density of cars on all roads in
    Antwerp on Monday morning.'  C returns (Oid, instant, street) triples;
    the three readings (a)–(c) aggregate them differently."""

    @pytest.fixture(scope="class")
    def street_world(self):
        return street_world()

    def region(self, city):
        return street_region()

    def test_triples_capture_street_memberships(self, street_world):
        city, ctx = street_world
        rows = self.region(city).evaluate(ctx)
        streets_hit = {row["s"] for row in rows}
        assert "h1" in streets_hit
        assert "v1" in streets_hit

    def test_reading_a_count_per_street_over_morning(self, street_world):
        """(a) count all cars per street over the whole morning, divide by
        street length, return the densest street."""
        city, ctx = street_world
        rows = self.region(city).evaluate(ctx)
        per_street = {}
        for row in rows:
            per_street.setdefault(row["s"], set()).add(row["oid"])
        densities = {
            street: len(cars)
            / city.gis.member_value("street", street, "length")
            for street, cars in per_street.items()
        }
        best = max(densities, key=densities.get)
        assert best == "h1"  # three cars on a 20-length street

    def test_reading_b_per_street_and_instant(self, street_world):
        """(b) density per (street, instant); return the peak moment."""
        city, ctx = street_world
        counts = count_per_group(self.region(city), ctx, ["s", "t"])
        assert counts[("h1", 1.0)] == 3  # carA, carB, carC at t=1
        assert counts[("h1", 0.0)] == 2

    def test_reading_c_citywide_per_instant(self, street_world):
        """(c) total cars on roads per instant / total network length."""
        city, ctx = street_world
        counts = count_per_group(self.region(city), ctx, ["t"])
        total_length = sum(
            city.gis.member_value("street", s, "length") for s in city.streets
        )
        densities = {t: c / total_length for (t,), c in counts.items()}
        assert densities[1.0] > densities[0.0]


class TestQuery3CompletelyThrough:
    """Q3 (Type 4): 'Total number of cars passing completely through cities
    with a population of more than 50,000 on Wednesday morning' — a
    positive condition plus a negated existential (never sampled in a small
    city)."""

    @pytest.fixture(scope="class")
    def city_world(self):
        return two_city_world()

    def test_negated_existential(self, city_world):
        oids = {row["oid"] for row in completely_through_region().evaluate(city_world)}
        assert oids == {"loyal"}


class TestQuery4StaticSnapshot:
    """Q4 (Type 6): 'How many cars are there in the Berchem neighborhood at
    9:15 on Jan 7th, 2006?' — the instant is fixed, the trajectory is used
    as a static object."""

    def test_empty_berchem_at_t3(self, world):
        ctx = world.context()
        query = (
            RegionBuilder()
            .from_moft("FMbus", at_instant=3)
            .in_attribute_polygon("neighborhood", member="berchem")
            .count_query(gis=world.gis)
        )
        assert query.run_scalar(ctx) == 0

    def test_zuid_at_t3(self, world):
        ctx = world.context()
        query = (
            RegionBuilder()
            .from_moft("FMbus", at_instant=3)
            .in_attribute_polygon("neighborhood", member="zuid")
            .count_query(gis=world.gis)
        )
        # O1 at (6,2) and O2 at (4,6) are both in zuid at t=3.
        assert query.run_scalar(ctx) == 2

    def test_object_ids_equal_positions_count(self, world):
        """The paper: counting (x, y) or counting Oid gives the same number
        since an object is at one point at an instant."""
        ctx = world.context()
        by_oid = (
            RegionBuilder()
            .from_moft("FMbus", at_instant=3)
            .in_attribute_polygon("neighborhood", member="zuid")
            .output("oid")
            .build(world.gis)
        )
        by_pos = (
            RegionBuilder()
            .from_moft("FMbus", at_instant=3)
            .in_attribute_polygon("neighborhood", member="zuid")
            .output("x", "y")
            .build(world.gis)
        )
        assert len(by_oid.evaluate(ctx)) == len(by_pos.evaluate(ctx))

    def test_type_classification(self, world):
        region = (
            RegionBuilder()
            .from_moft("FMbus", at_instant=3)
            .in_attribute_polygon("neighborhood", member="berchem")
            .build(world.gis)
        )
        assert classify(region) is QueryType.TRAJECTORY_AS_SPATIAL_OBJECT


class TestQuery5TimeSpentContinuously:
    """Q5 (Type 7): 'Total amount of time spent continuously (without
    leaving the city) by cars in Antwerp on January 7th, 2006' —
    interpolation gives entry/exit times."""

    @pytest.fixture(scope="class")
    def antwerp_world(self):
        schema = GISDimensionSchema(
            [LayerHierarchy("Lc", [(POINT, POLYGON), (POLYGON, ALL)])],
            [AttributePlacement("city", POLYGON, "Lc")],
        )
        gis = GISDimensionInstance(schema)
        gis.add_geometry(
            "Lc", POLYGON, "pg_antwerp", Polygon.rectangle(0, 0, 10, 10)
        )
        gis.set_alpha("city", "antwerp", "pg_antwerp")
        moft = MOFT("FM")
        moft.add_many(
            [
                # Crosses: inside between t=2.5 and t=7.5 -> 5 time units.
                ("crosser", 0, -5.0, 5.0),
                ("crosser", 10, 15.0, 5.0),
                # Stays inside the whole time: 10 units.
                ("resident", 0, 2.0, 2.0),
                ("resident", 10, 8.0, 8.0),
                # Never enters: 0.
                ("forain", 0, 50.0, 50.0),
                ("forain", 10, 60.0, 60.0),
            ]
        )
        time = TimeDimension.from_explicit_rollups(
            [("timeId", t, "hour", t) for t in (0, 10)]
        )
        return EvaluationContext(gis, time, moft)

    def test_per_object_durations(self, antwerp_world):
        durations = time_spent_in(antwerp_world, "city", "antwerp")
        assert durations["crosser"] == pytest.approx(5.0)
        assert durations["resident"] == pytest.approx(10.0)
        assert durations["forain"] == 0.0

    def test_total_time(self, antwerp_world):
        durations = time_spent_in(antwerp_world, "city", "antwerp")
        assert aggregate_trajectory_measure(durations, "SUM") == pytest.approx(
            15.0
        )

    def test_presence_intervals(self, antwerp_world):
        intervals = presence_intervals(antwerp_world, "city", "antwerp")
        assert intervals["crosser"] == [(2.5, 7.5)]
        assert intervals["resident"] == [(0.0, 10.0)]
        assert intervals["forain"] == []


class TestQuery6NearSchools:
    """Q6 (Type 7): 'Number of cars per hour within a radius of 100m from
    schools, in the morning' — first sample-only, then with interpolation
    catching unsampled pass-throughs."""

    def test_sampled_semantics(self, world):
        ctx = world.context()
        region = (
            RegionBuilder()
            .from_moft("FMbus")
            .during("timeOfDay", "Morning")
            .near_attribute_node("school", 3.0)
            .build(world.gis)
        )
        tuples = region.evaluate_tuples(ctx)
        # O1 samples at (4,2) and (6,2) are within 3 of the south school
        # at (5,5)?  distance((4,2),(5,5)) = sqrt(10) > 3 — so only
        # samples strictly close count; verify against direct computation.
        from repro.geometry import Point as P

        expected = set()
        schools = [P(5, 5), P(15, 15)]
        for oid, t, x, y in world.moft.tuples():
            if t in (2.0, 3.0, 4.0) and any(
                P(x, y).distance_to(s) <= 3.0 for s in schools
            ):
                expected.add((oid, t))
        assert tuples == expected

    def test_interpolated_catches_more(self, world):
        ctx = world.context()
        sampled = (
            RegionBuilder()
            .from_moft("FMbus")
            .near_attribute_node("school", 3.0)
            .output("oid")
            .build(world.gis)
        )
        interpolated = (
            RegionBuilder()
            .from_moft("FMbus")
            .trajectory_near_attribute_node("school", 3.0, moft_name="FMbus")
            .output("oid")
            .build(world.gis)
        )
        sampled_oids = {r["oid"] for r in sampled.evaluate(ctx)}
        interpolated_oids = {r["oid"] for r in interpolated.evaluate(ctx)}
        assert sampled_oids <= interpolated_oids

    def test_time_near_node(self, world):
        ctx = world.context()
        durations = time_near_node(
            ctx, "school", "south-school", 5.0, moft_name="FMbus"
        )
        # O1 travels along y=2 from (2,2) to (8,2); the school is at (5,5);
        # within distance 5 iff |x-5| <= 4, and [2,8] ⊂ [1,9], so the whole
        # three-hour trajectory qualifies.
        assert durations["O1"] == pytest.approx(3.0, abs=1e-9)
        assert durations["O3"] == 0.0


class TestQuery7TramStop:
    """Q7 (Type 4): 'Total number of persons waiting for the tram at
    Groenplaats, by minute and between 8:00 and 10:00 on weekday mornings'
    — a person waits if within four meters of the stop."""

    @pytest.fixture(scope="class")
    def tram_world(self):
        return tram_world()

    def test_waiting_counts_per_instant(self, tram_world):
        counts = count_per_group(tram_waiting_region(tram_world), tram_world, ["t"])
        assert counts == {(8.0,): 1, (9.0,): 2, (10.0,): 1}

    def test_weekend_excluded(self, tram_world):
        ctx = tram_world
        # Same constraint but requiring the (nonexistent) weekend: empty.
        region = (
            RegionBuilder()
            .from_moft("FM")
            .during("typeOfDay", "Weekend")
            .near_attribute_node("stop", 4.0, member="Groenplaats")
            .build(ctx.gis)
        )
        assert region.evaluate(ctx) == []
