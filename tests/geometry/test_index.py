"""Tests for the uniform grid over a geometry set."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import GeometryError
from repro.geometry import BoundingBox, Grid, Point, Polygon
from repro.geometry.index import candidate_pairs


def rect(x0, y0, x1, y1) -> Polygon:
    return Polygon.rectangle(x0, y0, x1, y1)


def query_box(geometries, box: BoundingBox):
    """The ids whose box meets ``box``: one broad phase of one probe."""
    ids = list(geometries)
    pos, _ = candidate_pairs(
        Grid.of(geometries), *(np.array([float(v)]) for v in (
            box.min_x, box.min_y, box.max_x, box.max_y
        ))
    )
    return {ids[p] for p in pos.tolist()}


def query_point(geometries, point: Point):
    ids = list(geometries)
    return {ids[p] for p in Grid.of(geometries).query_point(point.x, point.y)}


class TestBasics:
    def test_shape(self):
        row = {i: rect(i * 10, 0, i * 10 + 10, 10) for i in range(10)}
        # Cells of the median side, and one spare cell on every side.
        assert Grid.of(row).frame[2:] == (10.0, 12, 3)

    def test_bbox_of(self):
        grid = Grid.of({"a": rect(1, 2, 3, 4), "p": Point(5, 6)})
        assert [side.tolist() for side in grid.boxes] == [
            [1, 5], [2, 6], [3, 5], [4, 6]
        ]


class TestQueries:
    def test_query_box_hits(self):
        geometries = {"near": rect(5, 5, 8, 8), "far": rect(80, 80, 85, 85)}
        assert query_box(geometries, BoundingBox(0, 0, 10, 10)) == {"near"}

    def test_query_box_touching(self):
        geometries = {"a": rect(10, 10, 20, 20), "b": rect(90, 90, 95, 95)}
        assert query_box(geometries, BoundingBox(20, 20, 25, 25)) == {"a"}

    def test_query_spanning_object(self):
        geometries = {
            "wide": rect(0, 45, 100, 55),
            **{i: rect(i * 10, 0, i * 10 + 5, 5) for i in range(10)},
        }
        assert query_box(geometries, BoundingBox(70, 50, 72, 52)) == {"wide"}

    def test_query_point(self):
        geometries = {"a": rect(10, 10, 20, 20), "b": rect(90, 90, 95, 95)}
        assert query_point(geometries, Point(15, 15)) == {"a"}
        assert query_point(geometries, Point(25, 25)) == set()

    def test_query_outside_world_clamped(self):
        geometries = {"corner": rect(0, 0, 5, 5), "far": rect(90, 90, 95, 95)}
        assert query_box(geometries, BoundingBox(-50, -50, 1, 1)) == {"corner"}

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=90),
                st.floats(min_value=0, max_value=90),
                st.floats(min_value=0.1, max_value=10),
            ),
            min_size=1,
            max_size=40,
        ),
        st.tuples(
            st.floats(min_value=0, max_value=90),
            st.floats(min_value=0, max_value=90),
            st.floats(min_value=0.1, max_value=10),
        ),
    )
    def test_query_matches_brute_force(self, objects, probe):
        geometries = {}
        boxes = {}
        for i, (x, y, size) in enumerate(objects):
            box = BoundingBox(x, y, x + size, y + size)
            boxes[i] = box
            geometries[i] = rect(x, y, x + size, y + size)
        px, py, psize = probe
        query = BoundingBox(px, py, px + psize, py + psize)
        expected = {i for i, box in boxes.items() if box.intersects(query)}
        assert query_box(geometries, query) == expected


class TestIndexForGeometries:
    def test_empty_raises(self):
        with pytest.raises(GeometryError):
            Grid.of({})

    def test_mixed_geometries(self):
        geoms = {
            "square": Polygon.rectangle(0, 0, 10, 10),
            "dot": Point(50, 50),
        }
        assert query_point(geoms, Point(5, 5)) == {"square"}
        assert query_point(geoms, Point(50, 50)) == {"dot"}

    def test_single_point_world(self):
        assert query_point({"p": Point(3, 3)}, Point(3, 3)) == {"p"}

    def test_heuristic_cell_size(self):
        geoms = {
            i: Polygon.rectangle(i * 10, 0, i * 10 + 5, 5) for i in range(10)
        }
        assert len(Grid.of(geoms).boxes[0]) == 10
        hits = query_box(geoms, BoundingBox(0, 0, 12, 6))
        assert 0 in hits and 1 in hits
        assert 9 not in hits
