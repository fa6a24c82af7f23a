"""Tests for cross-geometry predicates and layer overlay precomputation."""

import pytest

from repro.errors import GeometryError
from repro.geometry import (
    LayerOverlay,
    Point,
    Polygon,
    Polyline,
    Segment,
    geometries_intersect,
    geometry_bbox,
    geometry_contains,
)


def city_layers():
    """Three tiny layers mirroring the paper's Section 5 example."""
    cities = {
        "antwerp": Polygon.rectangle(0, 0, 10, 10),
        "brussels": Polygon.rectangle(20, 0, 30, 10),
        "ghent": Polygon.rectangle(0, 20, 10, 30),
    }
    rivers = {
        # Crosses antwerp and brussels, misses ghent.
        "scheldt": Polyline([Point(-5, 5), Point(15, 5), Point(35, 5)]),
    }
    stores = {
        "store1": Point(5, 5),      # in antwerp
        "store2": Point(25, 5),     # in brussels
        "store3": Point(50, 50),    # nowhere
    }
    return {"cities": cities, "rivers": rivers, "stores": stores}


class TestGeometryDispatch:
    def test_point_point(self):
        assert geometries_intersect(Point(1, 1), Point(1, 1))
        assert not geometries_intersect(Point(1, 1), Point(1, 2))

    def test_point_polygon_both_orders(self):
        square = Polygon.rectangle(0, 0, 1, 1)
        assert geometries_intersect(Point(0.5, 0.5), square)
        assert geometries_intersect(square, Point(0.5, 0.5))
        assert not geometries_intersect(square, Point(5, 5))

    def test_point_polyline(self):
        line = Polyline([Point(0, 0), Point(2, 0)])
        assert geometries_intersect(Point(1, 0), line)
        assert not geometries_intersect(Point(1, 1), line)

    def test_segment_segment(self):
        a = Segment(Point(0, 0), Point(2, 2))
        b = Segment(Point(0, 2), Point(2, 0))
        assert geometries_intersect(a, b)

    def test_segment_polygon(self):
        square = Polygon.rectangle(0, 0, 1, 1)
        assert geometries_intersect(Segment(Point(-1, 0.5), Point(2, 0.5)), square)
        assert not geometries_intersect(Segment(Point(5, 5), Point(6, 6)), square)

    def test_polyline_polygon(self):
        square = Polygon.rectangle(0, 0, 1, 1)
        assert geometries_intersect(
            Polyline([Point(-1, 0.5), Point(2, 0.5)]), square
        )

    def test_polygon_polygon(self):
        a = Polygon.rectangle(0, 0, 2, 2)
        b = Polygon.rectangle(1, 1, 3, 3)
        assert geometries_intersect(a, b)

    def test_unsupported_type_raises(self):
        with pytest.raises(GeometryError):
            geometries_intersect("not a geometry", Point(0, 0))

    def test_bbox_of_point(self):
        box = geometry_bbox(Point(3, 4))
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (3, 4, 3, 4)

    def test_bbox_unsupported_raises(self):
        with pytest.raises(GeometryError):
            geometry_bbox(42)


class TestContainsDispatch:
    def test_polygon_contains_point(self):
        assert geometry_contains(Polygon.rectangle(0, 0, 1, 1), Point(0.5, 0.5))

    def test_polygon_contains_segment(self):
        square = Polygon.rectangle(0, 0, 10, 10)
        assert geometry_contains(square, Segment(Point(1, 1), Point(9, 9)))
        assert not geometry_contains(square, Segment(Point(5, 5), Point(15, 5)))

    def test_polygon_contains_polyline(self):
        square = Polygon.rectangle(0, 0, 10, 10)
        inside = Polyline([Point(1, 1), Point(5, 5), Point(9, 1)])
        leaving = Polyline([Point(1, 1), Point(15, 1)])
        assert geometry_contains(square, inside)
        assert not geometry_contains(square, leaving)

    def test_polygon_contains_polygon(self):
        outer = Polygon.rectangle(0, 0, 10, 10)
        inner = Polygon.rectangle(1, 1, 2, 2)
        assert geometry_contains(outer, inner)
        assert not geometry_contains(inner, outer)

    def test_segment_contains_point_only(self):
        seg = Segment(Point(0, 0), Point(2, 2))
        assert geometry_contains(seg, Point(1, 1))
        assert not geometry_contains(seg, Segment(Point(0, 0), Point(1, 1)))

    def test_point_contains_point(self):
        assert geometry_contains(Point(1, 1), Point(1, 1))
        assert not geometry_contains(Point(1, 1), Point(2, 2))


class TestLayerOverlay:
    def test_empty_layers_rejected(self):
        with pytest.raises(GeometryError):
            LayerOverlay({})

    def test_layer_access(self):
        overlay = LayerOverlay(city_layers())
        assert overlay.layer_names == ["cities", "rivers", "stores"]
        assert "antwerp" in overlay.layer("cities")
        with pytest.raises(GeometryError):
            overlay.layer("nope")

    def test_river_crosses_cities(self):
        overlay = LayerOverlay(city_layers())
        pairs = overlay.pairs("rivers", "cities", "intersects")
        assert pairs == {("scheldt", "antwerp"), ("scheldt", "brussels")}

    def test_cities_contain_stores(self):
        overlay = LayerOverlay(city_layers())
        pairs = overlay.pairs("cities", "stores", "contains")
        assert pairs == {("antwerp", "store1"), ("brussels", "store2")}

    def test_within_is_converse_of_contains(self):
        overlay = LayerOverlay(city_layers())
        within = overlay.pairs("stores", "cities", "within")
        contains = overlay.pairs("cities", "stores", "contains")
        assert within == {(b, a) for a, b in contains}

    def test_related(self):
        overlay = LayerOverlay(city_layers())
        assert overlay.related("rivers", "scheldt", "cities") == {
            "antwerp",
            "brussels",
        }
        assert overlay.related("cities", "ghent", "stores", "contains") == set()

    def test_unknown_predicate_raises(self):
        overlay = LayerOverlay(city_layers())
        with pytest.raises(GeometryError):
            overlay.pairs("cities", "rivers", "touches")

    def test_caching(self):
        overlay = LayerOverlay(city_layers())
        assert len(overlay.export_cache()["relations"]) == 0
        overlay.pairs("rivers", "cities")
        assert len(overlay.export_cache()["relations"]) == 1
        overlay.pairs("rivers", "cities")
        assert len(overlay.export_cache()["relations"]) == 1

    def test_precompute_all(self):
        overlay = LayerOverlay(city_layers())
        count = overlay.precompute_all()
        # 3 layers -> 6 ordered pairs x 3 predicates.
        assert count == 18
        assert len(overlay.export_cache()["relations"]) == 18

    def test_locate_point(self):
        """Point location over the overlay is the ``within`` relation of
        a point layer (the grid's point probes)."""
        layers = city_layers()
        layers["probes"] = {"in": Point(5, 5), "out": Point(15, 15)}
        overlay = LayerOverlay(layers)
        assert overlay.pairs("probes", "cities", "within") == {
            ("in", "antwerp")
        }

    def test_locate_point_on_shared_boundary(self):
        layers = {
            "zones": {
                "left": Polygon.rectangle(0, 0, 1, 1),
                "right": Polygon.rectangle(1, 0, 2, 1),
            },
            "probes": {"edge": Point(1, 0.5)},
        }
        overlay = LayerOverlay(layers)
        assert overlay.pairs("probes", "zones", "within") == {
            ("edge", "left"), ("edge", "right")
        }

    def test_locate_point_empty_layer(self):
        overlay = LayerOverlay({"empty": {}, "full": {"p": Point(0, 0)}})
        assert overlay.pairs("full", "empty", "within") == set()
