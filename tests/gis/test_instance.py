"""Tests for GIS dimension instances (Definition 2)."""

import pytest

from repro.errors import InstanceError, RollupError
from repro.geometry import Point, Polygon, Polyline, Segment
from repro.gis import (
    ALL,
    ALL_GEOMETRY,
    LINE,
    NODE,
    POINT,
    POLYGON,
    POLYLINE,
    AttributePlacement,
    GISDimensionInstance,
    GISDimensionSchema,
    LayerHierarchy,
)
from repro.olap import DimensionSchema


def build_instance() -> GISDimensionInstance:
    rivers = LayerHierarchy("Lr", [(POINT, LINE), (LINE, POLYLINE), (POLYLINE, ALL)])
    neighborhoods = LayerHierarchy("Ln", [(POINT, POLYGON), (POLYGON, ALL)])
    schema = GISDimensionSchema(
        [rivers, neighborhoods],
        [
            AttributePlacement("river", POLYLINE, "Lr"),
            AttributePlacement("neighborhood", POLYGON, "Ln"),
        ],
        [DimensionSchema("Neighbourhoods", [("neighborhood", "city")])],
    )
    inst = GISDimensionInstance(schema)
    inst.add_geometry("Ln", POLYGON, "pg1", Polygon.rectangle(0, 0, 10, 10))
    inst.add_geometry("Ln", POLYGON, "pg2", Polygon.rectangle(10, 0, 20, 10))
    inst.add_geometry(
        "Lr", POLYLINE, "pl1", Polyline([Point(-5, 5), Point(25, 5)])
    )
    inst.add_geometry("Lr", LINE, "ln1", Segment(Point(-5, 5), Point(25, 5)))
    inst.relate("Lr", LINE, "ln1", POLYLINE, "pl1")
    inst.set_alpha("neighborhood", "berchem", "pg1")
    inst.set_alpha("neighborhood", "zuid", "pg2")
    inst.set_alpha("river", "scheldt", "pl1")
    inst.set_member_value("neighborhood", "berchem", "income", 1200)
    inst.set_member_value("neighborhood", "zuid", "income", 2500)
    return inst


class TestGeometries:
    def test_add_and_lookup(self):
        inst = build_instance()
        assert inst.layer("Ln").size(POLYGON) == 2

    def test_unknown_layer_raises(self):
        inst = build_instance()
        with pytest.raises(InstanceError):
            inst.layer("Lx")

    def test_kind_not_in_hierarchy_rejected(self):
        inst = build_instance()
        with pytest.raises(InstanceError):
            inst.add_geometry("Ln", NODE, "n1", Point(0, 0))


class TestRollupRelations:
    def test_materialized_relation(self):
        inst = build_instance()
        assert inst.rollup_relation("Lr", LINE, POLYLINE) == {("ln1", "pl1")}

    def test_all_relation_synthesized(self):
        inst = build_instance()
        assert inst.rollup_relation("Ln", POLYGON, ALL) == {
            ("pg1", ALL_GEOMETRY),
            ("pg2", ALL_GEOMETRY),
        }

    def test_non_edge_rejected(self):
        inst = build_instance()
        with pytest.raises(RollupError):
            inst.relate("Lr", LINE, "ln1", ALL, ALL_GEOMETRY)
        with pytest.raises(RollupError):
            inst.rollup_relation("Ln", POINT, ALL)

    def test_point_relation_not_materializable(self):
        inst = build_instance()
        with pytest.raises(RollupError):
            inst.relate("Ln", POINT, (0, 0), POLYGON, "pg1")

    def test_relate_unknown_elements_rejected(self):
        inst = build_instance()
        with pytest.raises(InstanceError):
            inst.relate("Lr", LINE, "nope", POLYLINE, "pl1")
        with pytest.raises(InstanceError):
            inst.relate("Lr", LINE, "ln1", POLYLINE, "nope")

    def test_point_rollup(self):
        inst = build_instance()
        assert inst.point_rollup("Ln", POLYGON, Point(5, 5)) == {"pg1"}
        assert inst.point_rollup("Ln", POLYGON, Point(10, 5)) == {"pg1", "pg2"}
        assert inst.point_rollup("Ln", POLYGON, Point(50, 50)) == set()

    def test_point_rollup_invalid_kind(self):
        inst = build_instance()
        with pytest.raises(RollupError):
            inst.point_rollup("Ln", NODE, Point(0, 0))


class TestAlpha:
    def test_alpha_lookup(self):
        inst = build_instance()
        assert inst.alpha("neighborhood", "berchem") == "pg1"

    def test_alpha_undefined_raises(self):
        inst = build_instance()
        with pytest.raises(InstanceError):
            inst.alpha("neighborhood", "nowhere")

    def test_alpha_target_must_exist(self):
        inst = build_instance()
        with pytest.raises(InstanceError):
            inst.set_alpha("neighborhood", "ghost", "pg9")

    def test_alpha_remap_rejected(self):
        inst = build_instance()
        with pytest.raises(InstanceError):
            inst.set_alpha("neighborhood", "berchem", "pg2")

    def test_alpha_members_and_inverse(self):
        inst = build_instance()
        assert inst.alpha_members("neighborhood") == {"berchem", "zuid"}
        assert inst.alpha_inverse("neighborhood", "pg1") == {"berchem"}
        assert inst.alpha_inverse("neighborhood", "pgX") == set()

    def test_alpha_registers_app_member(self):
        inst = build_instance()
        app = inst.application_instance("Neighbourhoods")
        assert app.members("neighborhood") == {"berchem", "zuid"}


class TestMemberValues:
    def test_read_value(self):
        inst = build_instance()
        assert inst.member_value("neighborhood", "berchem", "income") == 1200

    def test_missing_value_raises(self):
        inst = build_instance()
        with pytest.raises(InstanceError):
            inst.member_value("neighborhood", "berchem", "population")

    def test_members_where(self):
        inst = build_instance()
        poor = inst.members_where(
            "neighborhood", lambda v: v("income") < 1500
        )
        assert poor == {"berchem"}

    def test_members_where_missing_value_propagates(self):
        inst = build_instance()
        inst.set_alpha("neighborhood", "noincome", "pg1")
        with pytest.raises(InstanceError):
            inst.members_where("neighborhood", lambda v: v("income") < 1500)


class TestOverlay:
    def test_overlay_layer_naming(self):
        inst = build_instance()
        overlay = inst.overlay()
        assert "Ln:polygon" in overlay.layer_names
        assert "Lr:polyline" in overlay.layer_names

    def test_overlay_cross_layer_pairs(self):
        inst = build_instance()
        overlay = inst.overlay()
        pairs = overlay.pairs("Lr:polyline", "Ln:polygon")
        assert pairs == {("pl1", "pg1"), ("pl1", "pg2")}

    def test_overlay_rebuilt_after_add(self):
        inst = build_instance()
        inst.overlay()
        inst.add_geometry("Ln", POLYGON, "pg3", Polygon.rectangle(30, 0, 40, 10))
        pairs = inst.overlay().pairs("Lr:polyline", "Ln:polygon")
        assert ("pl1", "pg3") not in pairs
        assert "pg3" in inst.overlay().layer("Ln:polygon")

    def test_application_instance_unknown(self):
        inst = build_instance()
        with pytest.raises(InstanceError):
            inst.application_instance("nope")
