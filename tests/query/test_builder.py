"""Tests for the fluent RegionBuilder."""

import pytest

from repro.errors import QueryError
from repro.query import QueryType, RegionBuilder, classify
from repro.synth.paperdata import LOW_INCOME_THRESHOLD, figure1_instance


@pytest.fixture(scope="module")
def world():
    return figure1_instance()


@pytest.fixture()
def ctx(world):
    return world.context()


class TestBasics:
    def test_requires_moft(self, world):
        with pytest.raises(QueryError):
            RegionBuilder().during("timeOfDay", "Morning").build(world.gis)

    def test_default_outputs(self, world, ctx):
        region = RegionBuilder().from_moft("FMbus").build(world.gis)
        assert region.output_variables == ("oid", "t")
        assert len(region.evaluate(ctx)) == 12

    def test_output_override(self, world, ctx):
        region = (
            RegionBuilder().from_moft("FMbus").output("oid").build(world.gis)
        )
        assert len(region.evaluate(ctx)) == 6

    def test_build_and_count_query_require_gis(self):
        builder = RegionBuilder().from_moft("FMbus")
        with pytest.raises(TypeError):
            builder.build()
        with pytest.raises(TypeError):
            builder.count_query()

    def test_output_requires_columns(self):
        with pytest.raises(QueryError):
            RegionBuilder().output()


class TestTemporal:
    def test_during(self, world, ctx):
        region = (
            RegionBuilder()
            .from_moft("FMbus")
            .during("timeOfDay", "Morning")
            .build(world.gis)
        )
        assert all(
            row["t"] in (2.0, 3.0, 4.0) for row in region.evaluate(ctx)
        )

    def test_where_time(self, world, ctx):
        region = (
            RegionBuilder()
            .from_moft("FMbus")
            .where_time("hour", ">=", 5)
            .build(world.gis)
        )
        assert {row["oid"] for row in region.evaluate(ctx)} == {"O3", "O4"}

    def test_at_instant_drops_t_output(self, world, ctx):
        region = RegionBuilder().from_moft("FMbus", at_instant=3).build(world.gis)
        assert region.output_variables == ("oid",)
        oids = {row["oid"] for row in region.evaluate(ctx)}
        assert oids == {"O1", "O2", "O5", "O6"}


class TestSpatial:
    def test_in_attribute_polygon_with_filter(self, world, ctx):
        region = (
            RegionBuilder()
            .from_moft("FMbus")
            .in_attribute_polygon(
                "neighborhood",
                value_filter=("income", "<", LOW_INCOME_THRESHOLD),
            )
            .build(world.gis)
        )
        tuples = region.evaluate_tuples(ctx)
        assert tuples == {
            ("O1", 1.0),
            ("O1", 2.0),
            ("O1", 3.0),
            ("O1", 4.0),
            ("O2", 3.0),
        }

    def test_in_attribute_polygon_specific_member(self, world, ctx):
        region = (
            RegionBuilder()
            .from_moft("FMbus")
            .in_attribute_polygon("neighborhood", member="centrum")
            .build(world.gis)
        )
        oids = {row["oid"] for row in region.evaluate(ctx)}
        assert oids == {"O2", "O4"}

    def test_where_member_list(self, world, ctx):
        region = (
            RegionBuilder()
            .from_moft("FMbus")
            .where_member("neighborhood", ["zuid", "centrum"], kind="polygon")
            .build(world.gis)
        )
        oids = {row["oid"] for row in region.evaluate(ctx)}
        assert oids == {"O1", "O2", "O4"}

    def test_near_attribute_node(self, world, ctx):
        region = (
            RegionBuilder()
            .from_moft("FMbus")
            .near_attribute_node("school", 8.0, member="south-school")
            .build(world.gis)
        )
        oids = {row["oid"] for row in region.evaluate(ctx)}
        assert "O1" in oids
        assert "O3" not in oids


class TestTrajectory:
    def test_trajectory_through_attribute_catches_o6(self, world, ctx):
        """O6 passes through low-income Berchem between its samples."""
        region = (
            RegionBuilder()
            .from_moft("FMbus")
            .trajectory_through_attribute(
                "neighborhood",
                value_filter=("income", "<", LOW_INCOME_THRESHOLD),
                moft_name="FMbus",
            )
            .output("oid")
            .build(world.gis)
        )
        oids = {row["oid"] for row in region.evaluate(ctx)}
        # O1 (sampled inside), O2 (sampled inside), O6 (interpolated only).
        assert oids == {"O1", "O2", "O6"}

    def test_sampled_vs_interpolated_semantics(self, world, ctx):
        """The paper's O6 point: sample semantics misses pass-throughs."""
        sampled = (
            RegionBuilder()
            .from_moft("FMbus")
            .in_attribute_polygon(
                "neighborhood",
                value_filter=("income", "<", LOW_INCOME_THRESHOLD),
            )
            .output("oid")
            .build(world.gis)
        )
        sampled_oids = {row["oid"] for row in sampled.evaluate(ctx)}
        assert "O6" not in sampled_oids

    def test_trajectory_near_node(self, world, ctx):
        # O3 sampled at (15,15) = the north school; O5 and O6 pass nearby.
        region = (
            RegionBuilder()
            .from_moft("FMbus")
            .trajectory_near_attribute_node(
                "school", 1.0, member="north-school", moft_name="FMbus"
            )
            .output("oid")
            .build(world.gis)
        )
        oids = {row["oid"] for row in region.evaluate(ctx)}
        assert "O3" in oids
        assert "O1" not in oids


class TestCountQuery:
    def test_count_query_shortcut(self, world, ctx):
        query = (
            RegionBuilder()
            .from_moft("FMbus")
            .during("timeOfDay", "Morning")
            .in_attribute_polygon(
                "neighborhood",
                value_filter=("income", "<", LOW_INCOME_THRESHOLD),
            )
            .count_query(per_span=("timeOfDay", "Morning"), gis=world.gis)
        )
        assert query.run_scalar(ctx) == pytest.approx(4 / 3)

    def test_count_distinct(self, world, ctx):
        query = (
            RegionBuilder()
            .from_moft("FMbus")
            .during("timeOfDay", "Morning")
            .count_query(distinct_objects=True, gis=world.gis)
        )
        assert query.run_scalar(ctx) == 4  # O1, O2, O5, O6 sampled then

    def test_classification_of_built_queries(self, world):
        region = (
            RegionBuilder()
            .from_moft("FMbus")
            .during("timeOfDay", "Morning")
            .build(world.gis)
        )
        assert classify(region) is QueryType.TRAJECTORY_SAMPLES
