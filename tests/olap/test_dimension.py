"""Tests for dimension schemas and instances (HMV model)."""

import pytest

from repro.errors import RollupError, SchemaError
from repro.olap import ALL_LEVEL, ALL_MEMBER, DimensionInstance, DimensionSchema


def geo_schema() -> DimensionSchema:
    """city -> province -> country, with a parallel city -> region branch."""
    return DimensionSchema(
        "Geography",
        [
            ("city", "province"),
            ("province", "country"),
            ("city", "region"),
            ("region", "country"),
        ],
    )


def populated_instance() -> DimensionInstance:
    inst = DimensionInstance(geo_schema())
    inst.set_rollup("city", "antwerp", "province", "antwerp-prov")
    inst.set_rollup("province", "antwerp-prov", "country", "belgium")
    inst.set_rollup("city", "antwerp", "region", "flanders")
    inst.set_rollup("region", "flanders", "country", "belgium")
    return inst


class TestSchema:
    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            DimensionSchema("", [("a", "b")])

    def test_no_edges_rejected(self):
        with pytest.raises(SchemaError):
            DimensionSchema("D", [])

    def test_self_loop_rejected(self):
        with pytest.raises(SchemaError):
            DimensionSchema("D", [("a", "a")])

    def test_cycle_rejected(self):
        with pytest.raises(SchemaError):
            DimensionSchema("D", [("a", "b"), ("b", "c"), ("c", "a")])

    def test_two_bottoms_rejected(self):
        with pytest.raises(SchemaError):
            DimensionSchema("D", [("a", "c"), ("b", "c")])

    def test_all_added_automatically(self):
        schema = DimensionSchema("D", [("a", "b")])
        assert ALL_LEVEL in schema.levels
        assert schema.rolls_up_to("b", ALL_LEVEL)

    def test_bottom_level(self):
        assert geo_schema().bottom_level == "city"

    def test_children(self):
        schema = geo_schema()
        assert schema.children("country") == {"province", "region"}

    def test_rolls_up_to_transitive(self):
        schema = geo_schema()
        assert schema.rolls_up_to("city", "country")
        assert schema.rolls_up_to("city", "city")
        assert not schema.rolls_up_to("country", "city")

    def test_path(self):
        schema = geo_schema()
        path = schema.path("city", "country")
        assert path[0] == "city"
        assert path[-1] == "country"
        assert len(path) == 3

    def test_path_incomparable_raises(self):
        schema = geo_schema()
        with pytest.raises(SchemaError):
            schema.path("province", "region")

    def test_all_paths(self):
        schema = geo_schema()
        paths = schema.all_paths("city", "country")
        assert len(paths) == 2

    def test_unknown_level_raises(self):
        with pytest.raises(SchemaError):
            geo_schema().children("galaxy")


class TestInstance:
    def test_members_after_rollup(self):
        inst = populated_instance()
        assert inst.members("city") == {"antwerp"}
        assert inst.members("country") == {"belgium"}

    def test_all_level_member_fixed(self):
        inst = populated_instance()
        assert inst.members(ALL_LEVEL) == {ALL_MEMBER}
        with pytest.raises(RollupError):
            inst.add_member(ALL_LEVEL, "everything")

    def test_direct_rollup(self):
        inst = populated_instance()
        assert inst.rollup("antwerp", "city", "province") == "antwerp-prov"

    def test_composed_rollup(self):
        inst = populated_instance()
        assert inst.rollup("antwerp", "city", "country") == "belgium"

    def test_rollup_to_all(self):
        inst = populated_instance()
        assert inst.rollup("antwerp", "city", ALL_LEVEL) == ALL_MEMBER

    def test_missing_rollup_raises(self):
        inst = populated_instance()
        inst.add_member("city", "ghent")
        with pytest.raises(RollupError):
            inst.rollup("ghent", "city", "province")

    def test_try_rollup_returns_none(self):
        inst = populated_instance()
        inst.add_member("city", "ghent")
        assert inst.try_rollup("ghent", "city", "province") is None

    def test_non_edge_rollup_rejected(self):
        inst = populated_instance()
        with pytest.raises(RollupError):
            inst.set_rollup("city", "antwerp", "country", "belgium")

    def test_remap_rejected(self):
        inst = populated_instance()
        with pytest.raises(RollupError):
            inst.set_rollup("city", "antwerp", "province", "other-prov")

    def test_descendants(self):
        inst = populated_instance()
        inst.set_rollup("city", "ghent", "province", "east-flanders")
        inst.set_rollup("province", "east-flanders", "country", "belgium")
        assert inst.descendants("belgium", "country", "city") == {
            "antwerp",
            "ghent",
        }

    def test_descendants_incomparable_raises(self):
        inst = populated_instance()
        with pytest.raises(RollupError):
            inst.descendants("flanders", "region", "province")


class TestConsistency:
    def test_consistent_instance_passes(self):
        populated_instance().check_consistency()

    def test_missing_edge_rollup_detected(self):
        inst = populated_instance()
        inst.add_member("city", "ghent")
        with pytest.raises(RollupError):
            inst.check_consistency()

    def test_path_divergence_detected(self):
        inst = DimensionInstance(geo_schema())
        inst.set_rollup("city", "lille", "province", "nord")
        inst.set_rollup("province", "nord", "country", "france")
        inst.set_rollup("city", "lille", "region", "flanders")
        # Diverging: via region, lille ends in belgium; via province, france.
        inst.set_rollup("region", "flanders", "country", "belgium")
        with pytest.raises(RollupError, match="ambiguous"):
            inst.check_consistency()
