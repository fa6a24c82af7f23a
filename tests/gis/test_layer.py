"""Tests for thematic layers."""

import pytest

from repro.errors import InstanceError, SchemaError
from repro.geometry import Point, Polygon, Polyline, Segment
from repro.gis import LINE, NODE, POLYGON, POLYLINE, Layer


def neighborhoods_layer() -> Layer:
    layer = Layer("Ln")
    layer.add(POLYGON, "berchem", Polygon.rectangle(0, 0, 10, 10))
    layer.add(POLYGON, "zuid", Polygon.rectangle(10, 0, 20, 10))
    return layer


class TestPopulation:
    def test_name_required(self):
        with pytest.raises(SchemaError):
            Layer("")

    def test_add_all_kinds(self):
        layer = Layer("L")
        layer.add(NODE, "school1", Point(1, 1))
        layer.add(LINE, "seg1", Segment(Point(0, 0), Point(1, 0)))
        layer.add(POLYLINE, "street1", Polyline([Point(0, 0), Point(5, 5)]))
        layer.add(POLYGON, "zone1", Polygon.rectangle(0, 0, 2, 2))
        assert layer.kinds() == {NODE, LINE, POLYLINE, POLYGON}
        assert layer.size() == 4

    def test_kind_type_mismatch_rejected(self):
        layer = Layer("L")
        with pytest.raises(InstanceError):
            layer.add(POLYGON, "x", Point(0, 0))

    def test_duplicate_id_rejected(self):
        layer = neighborhoods_layer()
        with pytest.raises(InstanceError):
            layer.add(POLYGON, "berchem", Polygon.rectangle(0, 0, 1, 1))

    def test_same_id_different_kinds_allowed(self):
        layer = Layer("L")
        layer.add(NODE, "x", Point(0, 0))
        layer.add(POLYGON, "x", Polygon.rectangle(0, 0, 1, 1))
        assert layer.size() == 2


class TestAccess:
    def test_elements_copy(self):
        layer = neighborhoods_layer()
        elems = layer.elements(POLYGON)
        elems.clear()
        assert layer.size(POLYGON) == 2

    def test_element_lookup(self):
        layer = neighborhoods_layer()
        poly = layer.element(POLYGON, "berchem")
        assert isinstance(poly, Polygon)
        with pytest.raises(InstanceError):
            layer.element(POLYGON, "nope")

    def test_contains(self):
        layer = neighborhoods_layer()
        assert (POLYGON, "berchem") in layer
        assert (POLYGON, "nope") not in layer
        assert (NODE, "berchem") not in layer

    def test_size_by_kind(self):
        layer = neighborhoods_layer()
        assert layer.size(POLYGON) == 2
        assert layer.size(NODE) == 0


class TestSpatialQueries:
    def test_locate_point(self):
        layer = neighborhoods_layer()
        assert layer.locate_point(POLYGON, Point(5, 5)) == {"berchem"}
        assert layer.locate_point(POLYGON, Point(15, 5)) == {"zuid"}
        assert layer.locate_point(POLYGON, Point(50, 50)) == set()

    def test_locate_point_shared_boundary(self):
        layer = neighborhoods_layer()
        assert layer.locate_point(POLYGON, Point(10, 5)) == {"berchem", "zuid"}

    def test_locate_point_empty_kind(self):
        layer = neighborhoods_layer()
        assert layer.locate_point(NODE, Point(5, 5)) == set()

    def test_index_invalidation_on_add(self):
        layer = neighborhoods_layer()
        assert layer.locate_point(POLYGON, Point(25, 5)) == set()
        layer.add(POLYGON, "north", Polygon.rectangle(20, 0, 30, 10))
        assert layer.locate_point(POLYGON, Point(25, 5)) == {"north"}
