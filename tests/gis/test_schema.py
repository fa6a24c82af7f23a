"""Tests for GIS dimension schemas (Definition 1)."""

import pytest

from repro.errors import SchemaError
from repro.gis import (
    ALL,
    LINE,
    NODE,
    POINT,
    POLYGON,
    POLYLINE,
    AttributePlacement,
    GISDimensionSchema,
    LayerHierarchy,
)
from repro.olap import DimensionSchema


def figure2_schema() -> GISDimensionSchema:
    """The schema of Figure 2: rivers (Lr), schools (Ls), neighborhoods (Ln)."""
    rivers = LayerHierarchy(
        "Lr", [(POINT, LINE), (LINE, POLYLINE), (POLYLINE, ALL)]
    )
    schools = LayerHierarchy("Ls", [(POINT, NODE), (NODE, ALL)])
    neighborhoods = LayerHierarchy("Ln", [(POINT, POLYGON), (POLYGON, ALL)])
    placements = [
        AttributePlacement("river", POLYLINE, "Lr"),
        AttributePlacement("school", NODE, "Ls"),
        AttributePlacement("neighborhood", POLYGON, "Ln"),
    ]
    dims = [
        DimensionSchema("Rivers", [("river", "basin")]),
        DimensionSchema("Neighbourhoods", [("neighborhood", "city")]),
    ]
    return GISDimensionSchema([rivers, schools, neighborhoods], placements, dims)


class TestLayerHierarchy:
    def test_default_composition(self):
        h = LayerHierarchy("L")
        assert POINT in h.kinds
        assert ALL in h.kinds
        assert h.is_coarsening(POINT, POLYLINE)
        assert h.is_coarsening(LINE, ALL)

    def test_point_required(self):
        with pytest.raises(SchemaError):
            LayerHierarchy("L", [(NODE, ALL)])

    def test_all_required(self):
        with pytest.raises(SchemaError):
            LayerHierarchy("L", [(POINT, NODE)])

    def test_all_must_be_sink(self):
        with pytest.raises(SchemaError):
            LayerHierarchy("L", [(POINT, ALL), (ALL, NODE), (NODE, ALL)])

    def test_point_must_be_only_source(self):
        # node has no incoming edge here, violating condition (d).
        with pytest.raises(SchemaError):
            LayerHierarchy("L", [(POINT, POLYGON), (POLYGON, ALL), (NODE, ALL)])

    def test_cycle_rejected(self):
        with pytest.raises(SchemaError):
            LayerHierarchy(
                "L",
                [(POINT, LINE), (LINE, POLYLINE), (POLYLINE, LINE), (POLYLINE, ALL)],
            )

    def test_self_edge_rejected(self):
        with pytest.raises(SchemaError):
            LayerHierarchy("L", [(POINT, POINT), (POINT, ALL)])

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            LayerHierarchy("L", [(POINT, "blob"), ("blob", ALL)])

    def test_unknown_kind_query_raises(self):
        h = LayerHierarchy("L", [(POINT, NODE), (NODE, ALL)])
        with pytest.raises(SchemaError):
            h.is_coarsening(POLYGON, ALL)


class TestAttributePlacement:
    def test_valid(self):
        p = AttributePlacement("school", NODE, "Ls")
        assert p.kind == NODE

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            AttributePlacement("", NODE, "Ls")

    def test_point_placement_rejected(self):
        with pytest.raises(SchemaError):
            AttributePlacement("a", POINT, "L")

    def test_all_placement_rejected(self):
        with pytest.raises(SchemaError):
            AttributePlacement("a", ALL, "L")


class TestGISDimensionSchema:
    def test_figure2_layers(self):
        schema = figure2_schema()
        assert schema.layer_names == ["Ln", "Lr", "Ls"]

    def test_at_least_one_layer(self):
        with pytest.raises(SchemaError):
            GISDimensionSchema([])

    def test_duplicate_layer_rejected(self):
        h = LayerHierarchy("L")
        with pytest.raises(SchemaError):
            GISDimensionSchema([h, LayerHierarchy("L")])

    def test_placement_unknown_layer_rejected(self):
        h = LayerHierarchy("L")
        with pytest.raises(SchemaError):
            GISDimensionSchema([h], [AttributePlacement("a", NODE, "M")])

    def test_placement_kind_not_in_hierarchy_rejected(self):
        h = LayerHierarchy("L", [(POINT, NODE), (NODE, ALL)])
        with pytest.raises(SchemaError):
            GISDimensionSchema([h], [AttributePlacement("a", POLYGON, "L")])

    def test_duplicate_placement_rejected(self):
        h = LayerHierarchy("L", [(POINT, NODE), (NODE, ALL)])
        with pytest.raises(SchemaError):
            GISDimensionSchema(
                [h],
                [
                    AttributePlacement("a", NODE, "L"),
                    AttributePlacement("a", NODE, "L"),
                ],
            )

    def test_attribute_access(self):
        schema = figure2_schema()
        assert schema.attributes == ["neighborhood", "river", "school"]
        placement = schema.placement("river")
        assert placement.kind == POLYLINE
        assert placement.layer == "Lr"
        with pytest.raises(SchemaError):
            schema.placement("galaxy")

    def test_application_dimensions(self):
        schema = figure2_schema()
        assert set(schema.application_dimensions) == {"Rivers", "Neighbourhoods"}
        dim = schema.application_dimension("Neighbourhoods")
        assert dim.bottom_level == "neighborhood"
        with pytest.raises(SchemaError):
            schema.application_dimension("nope")

    def test_duplicate_dimension_rejected(self):
        h = LayerHierarchy("L")
        dims = [
            DimensionSchema("D", [("a", "b")]),
            DimensionSchema("D", [("x", "y")]),
        ]
        with pytest.raises(SchemaError):
            GISDimensionSchema([h], [], dims)

    def test_dimension_for_attribute(self):
        schema = figure2_schema()
        dim = schema.dimension_for_attribute("neighborhood")
        assert dim is not None and dim.name == "Neighbourhoods"
        assert schema.dimension_for_attribute("school") is None
