"""One geometry state per layer: the indexes a layer keeps.

A layer keeps one index per ``(kind, id set)`` — the pass of a polygon
answer, the grid of any other — for every reader over it: contexts (an
ingest snapshot's too), ``locate_point``, the overlay and the stores
kept over the layer.  The key names the layer *instance*, so two worlds
that share layer names and ids never share an index; the cache is
bounded, and a pickle carries none of it.
"""

from __future__ import annotations

import pickle

import pytest

from repro.geometry import Point, Polygon
from repro.geometry.index import Grid
from repro.geometry.kernels import PolygonPass
from repro.gis import (
    ALL,
    NODE,
    POINT,
    POLYGON,
    GISDimensionInstance,
    GISDimensionSchema,
    LayerHierarchy,
)
from repro.gis.layer import GEOMETRY_INDEXES, Layer
from repro.query.region import EvaluationContext
from repro.temporal.timedim import TimeDimension

SQUARES = {
    f"b{i}": Polygon.rectangle(10 * i, 0, 10 * i + 10, 10) for i in range(4)
}


def world(polygons=SQUARES) -> GISDimensionInstance:
    gis = GISDimensionInstance(GISDimensionSchema(
        [LayerHierarchy("Ln", [(POINT, NODE), (NODE, POLYGON), (POLYGON, ALL)])],
        [],
    ))
    for gid, polygon in polygons.items():
        gis.add_geometry("Ln", POLYGON, gid, polygon)
    gis.add_geometry("Ln", NODE, "school", Point(5, 5))
    return gis


def context(gis) -> EvaluationContext:
    return EvaluationContext(gis, TimeDimension.from_explicit_rollups(
        [("timeId", 0, "hour", 0)]
    ))


class TestOneStatePerLayer:
    def test_contexts_over_one_gis_share_the_index(self):
        gis = world()
        first, second = context(gis), context(gis)
        ids = {"b0", "b2"}
        passes = first.geometry_index("Ln", POLYGON, ids)
        assert isinstance(passes, PolygonPass)
        assert second.geometry_index("Ln", POLYGON, list(ids)) is passes
        assert first.obs.count("grid_index_builds") == 1
        assert second.obs.count("grid_index_builds") == 0
        assert second.obs.count("grid_index_cache_hits") == 1
        assert second.has_geometry_index("Ln", POLYGON, ids)
        assert not second.has_geometry_index("Ln", POLYGON, {"b1"})
        assert isinstance(first.geometry_index("Ln", NODE, {"school"}), Grid)

    def test_locate_point_and_overlay_read_the_kinds_whole_index(self):
        gis = world()
        layer = gis.layer("Ln")
        assert layer.kept_index(POLYGON) is None
        assert gis.point_rollup("Ln", POLYGON, Point(15, 5)) == {"b1"}
        whole = layer.kept_index(POLYGON)
        assert isinstance(whole, PolygonPass)
        assert layer.geometry_index(POLYGON, set(SQUARES)) is whole
        assert gis.overlay()._grid(f"Ln:{POLYGON}") is whole.grid
        pairs = gis.overlay().pairs(f"Ln:{POLYGON}", f"Ln:{NODE}", "contains")
        assert pairs == {("b0", "school")}

    def test_an_added_element_makes_a_new_whole_answer(self):
        layer = Layer("L")
        layer.add(POLYGON, "a", Polygon.rectangle(0, 0, 1, 1))
        assert layer.locate_point(POLYGON, Point(2.5, 0.5)) == set()
        before = layer.kept_index(POLYGON)
        layer.add(POLYGON, "b", Polygon.rectangle(2, 0, 3, 1))
        assert layer.locate_point(POLYGON, Point(2.5, 0.5)) == {"b"}
        assert layer.kept_index(POLYGON) is not before
        # The old answer keeps its index: its polygons did not change.
        assert layer.kept_index(POLYGON, {"a"}) is before

    def test_the_cache_keeps_at_most_its_bound(self):
        polygons = {
            f"p{i}": Polygon.rectangle(i, 0, i + 1, 1)
            for i in range(GEOMETRY_INDEXES + 4)
        }
        layer = Layer("L")
        for gid, polygon in polygons.items():
            layer.add(POLYGON, gid, polygon)
        answers = [{gid} for gid in polygons]
        kept = [layer.geometry_index(POLYGON, ids) for ids in answers]
        assert len(layer._indexes) == GEOMETRY_INDEXES
        # Least recently used first out.
        assert layer.kept_index(POLYGON, answers[0]) is None
        assert layer.kept_index(POLYGON, answers[-1]) is kept[-1]
        oldest = answers[-GEOMETRY_INDEXES]
        assert layer.geometry_index(POLYGON, oldest) is kept[-GEOMETRY_INDEXES]
        layer.geometry_index(POLYGON, answers[0])
        assert layer.kept_index(POLYGON, oldest) is not None
        assert layer.kept_index(POLYGON, answers[-GEOMETRY_INDEXES + 1]) is None


class TestInstances:
    def test_equal_layer_names_and_ids_never_share_an_index(self):
        moved = {
            gid: Polygon.rectangle(b.bbox.min_x, 50, b.bbox.max_x, 60)
            for gid, b in SQUARES.items()
        }
        here, there = world(), world(moved)
        a, b = here.layer("Ln"), there.layer("Ln")
        assert a.token != b.token
        assert a.key(POLYGON) != b.key(POLYGON)
        assert a.geometry_index(POLYGON) is not b.geometry_index(POLYGON)
        assert here.point_rollup("Ln", POLYGON, Point(5, 5)) == {"b0"}
        assert there.point_rollup("Ln", POLYGON, Point(5, 5)) == set()
        assert there.point_rollup("Ln", POLYGON, Point(5, 55)) == {"b0"}

    @pytest.mark.parametrize("what", ["gis", "context"])
    def test_a_pickle_carries_no_index(self, what):
        gis = world()
        ctx = context(gis)
        obj = gis if what == "gis" else ctx
        cold = len(pickle.dumps(gis))
        ctx.geometry_index("Ln", POLYGON, {"b0", "b1"})
        gis.point_rollup("Ln", POLYGON, Point(5, 5))
        assert len(gis.layer("Ln")._indexes) == 2
        assert len(pickle.dumps(gis)) == cold
        copy = pickle.loads(pickle.dumps(obj))
        layer = (copy if what == "gis" else copy.gis).layer("Ln")
        assert layer._indexes == {}
        # A copy is another instance: its own token, its own indexes.
        assert layer.token != gis.layer("Ln").token
        assert Layer.answer(layer.key(POLYGON, {"b0"}))[0] == {
            "b0": SQUARES["b0"]
        }

    def test_answer_finds_adopts_or_misses(self):
        gis = world()
        key = gis.layer("Ln").key(POLYGON, {"b1", "b0"})
        geometries, index = Layer.answer(key)
        assert list(geometries) == ["b0", "b1"]
        assert index is gis.layer("Ln").geometry_index(POLYGON, {"b0", "b1"})
        foreign = ("0.0", POLYGON, frozenset({"b0"}))
        assert Layer.answer(foreign) is None
        adopted, _ = Layer.answer(foreign, {"b0": SQUARES["b0"]})
        assert adopted == {"b0": SQUARES["b0"]}
        assert Layer.answer(foreign)[0] == adopted
        assert Layer.answer(("0.0", POLYGON, frozenset({"b1"}))) is None
