"""E6 — Section 4: the seven example queries, timed.

Each benchmark runs one of the paper's worked examples (as reproduced in
``tests/query/test_section4_examples.py``) against the Figure 1 world or a
synthetic stand-in, asserting the expected answer.
"""

from datetime import datetime

import pytest

from repro.geometry import Point, Polygon
from repro.gis import (
    ALL,
    NODE,
    POINT,
    POLYGON,
    AttributePlacement,
    GISDimensionInstance,
    GISDimensionSchema,
    LayerHierarchy,
)
from repro.mo import MOFT
from repro.query import (
    EvaluationContext,
    RegionBuilder,
    aggregate_trajectory_measure,
    count_per_group,
    time_spent_in,
)
from repro.temporal import TimeDimension, hourly


def test_q1_region_count(paper_world, benchmark):
    """Q1: number of cars in region South on a weekday morning."""
    world = paper_world
    query = (
        RegionBuilder()
        .from_moft("FMbus")
        .during("timeOfDay", "Morning")
        .during("typeOfDay", "Weekday")
        .in_attribute_polygon("neighborhood", member="zuid")
        .count_query(distinct_objects=True, gis=world.gis)
    )
    assert benchmark(lambda: query.run_scalar(world.context())) == 2


def test_q2_street_density(small_world, benchmark):
    """Q2: maximal density of cars on all roads (reading (b))."""
    city, moft, time_dim = small_world
    # Cars exactly on street h2 of the small city at two instants.
    street_moft = MOFT("FM")
    y = 2 * city.config.block_size
    street_moft.add_many(
        [
            ("carA", 0, 5.0, y),
            ("carA", 1, 12.0, y),
            ("carB", 1, 20.0, y),
        ]
    )
    ctx = EvaluationContext(city.gis, time_dim, street_moft)
    region = (
        RegionBuilder()
        .from_moft("FM")
        .in_attribute_geometry("street", "polyline")
        .build(city.gis)
    )

    def _run():
        return count_per_group(region, ctx, ["t"])

    counts = benchmark(_run)
    assert counts[(1.0,)] == 2


def test_q4_snapshot(paper_world, benchmark):
    """Q4: how many cars in a neighborhood at a fixed instant."""
    world = paper_world
    query = (
        RegionBuilder()
        .from_moft("FMbus", at_instant=3)
        .in_attribute_polygon("neighborhood", member="zuid")
        .count_query(gis=world.gis)
    )
    assert benchmark(lambda: query.run_scalar(world.context())) == 2


def _antwerp_context():
    schema = GISDimensionSchema(
        [LayerHierarchy("Lc", [(POINT, POLYGON), (POLYGON, ALL)])],
        [AttributePlacement("city", POLYGON, "Lc")],
    )
    gis = GISDimensionInstance(schema)
    gis.add_geometry("Lc", POLYGON, "pg_antwerp", Polygon.rectangle(0, 0, 10, 10))
    gis.set_alpha("city", "antwerp", "pg_antwerp")
    moft = MOFT("FM")
    moft.add_many(
        [
            ("crosser", 0, -5.0, 5.0),
            ("crosser", 10, 15.0, 5.0),
            ("resident", 0, 2.0, 2.0),
            ("resident", 10, 8.0, 8.0),
        ]
    )
    time_dim = TimeDimension.from_explicit_rollups(
        [("timeId", t, "hour", t) for t in (0, 10)]
    )
    return EvaluationContext(gis, time_dim, moft)


def test_q5_time_in_city(benchmark):
    """Q5: total time spent continuously in Antwerp (interpolated)."""
    ctx = _antwerp_context()

    def _run():
        return aggregate_trajectory_measure(
            time_spent_in(ctx, "city", "antwerp"), "SUM"
        )

    assert benchmark(_run) == pytest.approx(15.0)


def test_q6_near_schools_both_semantics(paper_world, benchmark):
    """Q6: near-school counts, sampled vs interpolated semantics."""
    world = paper_world
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

    def _run():
        ctx = world.context()
        s = {r["oid"] for r in sampled.evaluate(ctx)}
        i = {r["oid"] for r in interpolated.evaluate(ctx)}
        return s, i

    s, i = benchmark(_run)
    assert s <= i


def test_q7_tram_stop(benchmark):
    """Q7: persons waiting at the Groenplaats stop, 8–10 on weekdays."""
    schema = GISDimensionSchema(
        [LayerHierarchy("Lbus", [(POINT, NODE), (NODE, ALL)])],
        [AttributePlacement("stop", NODE, "Lbus")],
    )
    gis = GISDimensionInstance(schema)
    gis.add_geometry("Lbus", NODE, "nd_stop", Point(50.0, 50.0))
    gis.set_alpha("stop", "Groenplaats", "nd_stop")
    moft = MOFT("FM")
    moft.add_many(
        [
            ("waiter1", 8, 51.0, 50.0),
            ("waiter1", 9, 50.5, 49.5),
            ("waiter2", 9, 48.0, 50.0),
            ("walker", 8, 10.0, 10.0),
        ]
    )
    time_dim = TimeDimension.from_mapping(
        hourly(datetime(2006, 1, 9, 0, 0)), range(24)
    )
    ctx = EvaluationContext(gis, time_dim, moft)
    region = (
        RegionBuilder()
        .from_moft("FM")
        .during("typeOfDay", "Weekday")
        .where_time("hour", ">=", 8)
        .where_time("hour", "<=", 10)
        .near_attribute_node("stop", 4.0, member="Groenplaats")
        .build(gis)
    )

    def _run():
        return count_per_group(region, ctx, ["t"])

    counts = benchmark(_run)
    assert counts == {(8.0,): 1, (9.0,): 2}
