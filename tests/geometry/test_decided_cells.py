"""Decided cells answer point containment exactly.

A :class:`~repro.geometry.kernels.PolygonPass` labels the cells of a
grid over its polygons once; :func:`~repro.query.vectorized
.points_inside` answers the points of a decided cell from its label and
sends only the rest through the broad phase and ``pairs_contain``.  The
label must be the answer the undecided path gives, for every point, so
these tests aim at what could break that: polygons whose edges lie on
cell lines, holes, reflex corners, coordinates from ``1e-3`` to ``1e6``,
and points on cell corners (and one ulp either side), on polygon edges
and inside the boundary tolerance band.  Each answer is checked against
the undecided path and against :meth:`Polygon.contains_point`, under
both kernel backends (``scalar`` decides no cell).  A segment box of
one label (``LabelGrid.decided``) is checked the same way against the
scalar ``clip_segment`` / ``intersects_segment``, and against the
labels read cell by cell.  A completeness record on the 10k-sample city
keeps a grid that decides nothing from passing silently.
"""

import math
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import kernels
from repro.geometry.index import _cell
from repro.geometry.kernels import (
    MIXED,
    OUTSIDE,
    PolygonPass,
    set_kernel_backend,
)
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.segment import Segment
from repro.gis import POLYGON
from repro.obs import PipelineStats
from repro.query.evaluator import TrajectoryIntersectionCounter
from repro.query.vectorized import _contained, points_inside
from repro.preagg import PreAggStore
from repro.synth import CityConfig, build_city, install_city_pois, stop_biased_moft
from repro.temporal.calendar import hourly
from repro.temporal.timedim import TimeDimension

from tests.conftest import finest_labels
from tests.geometry.test_clip_kernel import CSHAPE, DIAMOND, HOLED, SQUARE, ZIGZAG


@pytest.fixture(params=["numpy", "scalar"])
def backend(request):
    set_kernel_backend(request.param)
    yield request.param
    set_kernel_backend("numpy")


def moved(polygon, scale, dx, dy):
    """``polygon`` scaled by ``scale`` and then shifted by ``(dx, dy)``."""

    def ring(points):
        return [Point(p.x * scale + dx, p.y * scale + dy) for p in points]

    return Polygon(ring(polygon.shell), holes=[ring(h) for h in polygon.holes])


def probes(polygons, grid, rng, n_random=400):
    """Points on cell corners (and an ulp either side), on every edge, in
    the tolerance band across every edge, and at random in the extent."""
    ox, oy, size, cols, rows = grid
    xs = ox + np.arange(cols + 1) * size
    ys = oy + np.arange(rows + 1) * size
    cx, cy = (a.ravel() for a in np.meshgrid(xs, ys))
    x, y = [cx], [cy]
    for direction in (-np.inf, np.inf):
        x.append(np.nextafter(cx, direction))
        y.append(np.nextafter(cy, direction))
    for polygon in polygons:
        box = polygon.bbox
        tolerance = 1e-9 * max(box.width, box.height, 1.0)
        for ring in (polygon.shell, *polygon.holes):
            for a, b in zip(ring, ring[1:] + ring[:1]):
                t = rng.uniform(0.0, 1.0, 3)
                px = a.x + t * (b.x - a.x)
                py = a.y + t * (b.y - a.y)
                length = math.hypot(b.x - a.x, b.y - a.y)
                nx, ny = (a.y - b.y) / length, (b.x - a.x) / length
                for k in (0.0, 1.0, 3.0, -1.0, -3.0):
                    x.append(px + k * tolerance * nx)
                    y.append(py + k * tolerance * ny)
    x.append(rng.uniform(ox - size, ox + (cols + 1) * size, n_random))
    y.append(rng.uniform(oy - size, oy + (rows + 1) * size, n_random))
    return np.concatenate(x), np.concatenate(y)


def pairs(found):
    return sorted(
        (p, a) for pos, at in found for p, a in zip(pos.tolist(), at.tolist())
    )


def assert_decided_exact(polygons, rng, backend):
    """``points_inside`` with a label grid == the undecided path ==
    ``contains_point``, pair by pair."""
    passes = PolygonPass.of(dict(enumerate(polygons)))
    labels = finest_labels(passes)
    x, y = probes(polygons, labels.grid, rng)
    obs = PipelineStats()
    got = pairs(points_inside(passes, x, y, obs=obs))
    assert got == pairs([_contained(passes, x, y)])
    # The scalar predicate, on a sample of the points the labels
    # answered (``pairs_contain`` is pinned to it everywhere else).
    label = labels.of(x, y)
    some = rng.permutation(np.flatnonzero(label != MIXED))[:300].tolist()
    some += rng.permutation(x.size)[:100].tolist()
    by_point = {}
    for p, at in got:
        by_point.setdefault(at, []).append(p)
    for i in some:
        point = Point(float(x[i]), float(y[i]))
        want = [p for p, polygon in enumerate(polygons) if polygon.contains_point(point)]
        assert by_point.get(i, []) == want, (i, point)
    decided = obs.count("cell_decided_points")
    if backend == "scalar":
        assert decided == 0
    return labels, decided


TABLE = [SQUARE, HOLED, DIAMOND, CSHAPE, ZIGZAG]


class TestShapes:
    @pytest.mark.parametrize(
        "scale, offset", [(1.0, 0.0), (1e-3, 1e6), (1e3, -7.5), (1e-3, 0.0)]
    )
    def test_table(self, backend, scale, offset):
        """The shapes side by side (boxes apart, so cells can be
        decided) and all on one spot (every box covers every cell)."""
        overlapping = [moved(p, scale, offset, offset) for p in TABLE]
        assert_decided_exact(overlapping, np.random.default_rng(2), backend)
        polygons = [
            moved(p, scale, offset + 15 * i * scale, offset)
            for i, p in enumerate(TABLE)
        ]
        labels, decided = assert_decided_exact(
            polygons, np.random.default_rng(3), backend
        )
        if backend == "numpy":
            assert decided > 0
            assert (labels.labels >= 0).any() and (labels.labels == MIXED).any()

    def test_edges_on_cell_lines(self, backend):
        """Side-32 squares on a lattice, 128 units tall: the finest grid
        (128 cells across) has cells of 1, so every edge lies on a cell
        line."""
        squares = [
            Polygon([
                Point(i, j), Point(i + 32, j), Point(i + 32, j + 32),
                Point(i, j + 32),
            ])
            for i, j in ((0, 0), (32, 0), (64, 32), (0, 96))
        ]
        labels, _ = assert_decided_exact(
            squares, np.random.default_rng(5), backend
        )
        assert labels.grid[2] == 1.0
        # Adjacent squares share an edge: no cell along it is decided.
        assert (labels.labels == OUTSIDE).any()

    def test_hole_interior_is_outside(self):
        """Side 32, so cells of 0.25: the hole's inner cells are decided
        outside, the ring's inside, and a cell along the hole's edge is
        undecided."""
        square = [Point(0, 0), Point(32, 0), Point(32, 32), Point(0, 32)]
        hole = [Point(10, 10), Point(22, 10), Point(22, 22), Point(10, 22)]
        labels = finest_labels(
            PolygonPass.of({"holed": Polygon(square, holes=[hole])})
        )
        assert labels.grid[2] == 0.25
        found = labels.of(np.array([14.0, 6.0, 10.1]), np.array([14.0, 6.0, 15.0]))
        assert found.tolist() == [OUTSIDE, 0, MIXED]


class TestJitteredTiling:
    """A tiling whose polygons are not their boxes (``jittered_tiling``):
    points in every tile's core are decided, exactly."""

    def test_points(self, backend, jittered_tiles):
        labels, decided = assert_decided_exact(
            list(jittered_tiles.values()), np.random.default_rng(17), backend
        )
        if backend == "numpy":
            assert decided > 0
            assert (labels.labels >= 0).sum() > len(jittered_tiles)


class TestOutsideBoxes:
    """A segment whose box maps only to ``OUTSIDE`` cells
    (``LabelGrid.outside``) meets no polygon by the scalar predicate."""

    @staticmethod
    def segments(grid, rng):
        """Random segments over the extent and past it (boxes clamped
        to border cells), short ones, and grid-aligned ones: along cell
        lines and between cell corners, an ulp either side."""
        ox, oy, size, cols, rows = grid
        w, h = cols * size, rows * size
        x0 = rng.uniform(ox - w / 2, ox + 1.5 * w, 3000)
        y0 = rng.uniform(oy - h / 2, oy + 1.5 * h, 3000)
        step = rng.uniform(-3 * size, 3 * size, (2, 3000))
        x1 = np.where(np.arange(3000) < 1000, rng.uniform(ox - w, ox + 2 * w, 3000), x0 + step[0])
        y1 = np.where(np.arange(3000) < 1000, rng.uniform(oy - h, oy + 2 * h, 3000), y0 + step[1])
        i = rng.integers(-2, cols + 3, (2, 3000))
        j = rng.integers(-2, rows + 3, (2, 3000))
        gx = ox + i * size
        gy = oy + j * size
        # Along a cell line: one coordinate shared.
        gx[1, :1000] = gx[0, :1000]
        gy[1, 1000:2000] = gy[0, 1000:2000]
        ulp = rng.choice([-np.inf, 0.0, np.inf], (4, 3000))
        gx = np.where(ulp[:2] == 0, gx, np.nextafter(gx, ulp[:2]))
        gy = np.where(ulp[2:] == 0, gy, np.nextafter(gy, ulp[2:]))
        return (
            np.concatenate((x0, gx[0])), np.concatenate((y0, gy[0])),
            np.concatenate((x1, gx[1])), np.concatenate((y1, gy[1])),
        )

    @pytest.mark.parametrize("scale, offset", [(1.0, 0.0), (1e-3, 1e6), (1e3, -7.5)])
    def test_table(self, scale, offset):
        polygons = [
            moved(p, scale, offset + 15 * i * scale, offset)
            for i, p in enumerate(TABLE)
        ]
        labels = finest_labels(PolygonPass.of(dict(enumerate(polygons))))
        x0, y0, x1, y1 = self.segments(labels.grid, np.random.default_rng(11))
        boxes = (
            np.minimum(x0, x1), np.minimum(y0, y1),
            np.maximum(x0, x1), np.maximum(y0, y1),
        )
        outside = labels.outside(*boxes)
        ox, oy, size, cols, rows = labels.grid
        inner = (boxes[0] > ox) & (boxes[2] < ox + cols * size)
        # Decided segments inside the extent and past it; undecided ones.
        assert (outside & inner).any() and (outside & ~inner).any()
        assert not outside.all()
        for k in np.flatnonzero(outside).tolist():
            segment = Segment(Point(x0[k], y0[k]), Point(x1[k], y1[k]))
            assert not any(p.intersects_segment(segment) for p in polygons), k

    def test_table_agrees_with_the_labels(self):
        """A one-cell box is outside exactly when its cell's label is."""
        labels = finest_labels(PolygonPass.of(dict(enumerate(TABLE))))
        ox, oy, size, cols, rows = labels.grid
        col, row = np.divmod(np.arange(cols * rows), rows)
        cx, cy = ox + (col + 0.5) * size, oy + (row + 0.5) * size
        assert np.array_equal(
            labels.outside(cx, cy, cx, cy), labels.labels == OUTSIDE
        )


class TestDecidedBoxes:
    """A segment whose box maps only to cells of one label
    (``LabelGrid.decided``) is decided: inside its polygon, far from
    every edge, and meeting no other polygon; or meeting none."""

    @staticmethod
    def one_label(labels, boxes):
        """The label of each box's cell range, cell by cell."""
        ox, oy, size, cols, rows = labels.grid
        cells = labels.labels.reshape(cols, rows)
        c0, r0 = _cell(labels.grid, boxes[0], boxes[1])
        c1, r1 = _cell(labels.grid, boxes[2], boxes[3])
        out = []
        for a, b, c, d in zip(c0.tolist(), r0.tolist(), c1.tolist(), r1.tolist()):
            found = np.unique(cells[a:c + 1, b:d + 1])
            out.append(found[0] if found.size == 1 else MIXED)
        return np.array(out)

    @staticmethod
    def reach_outside(labels, boxes):
        """The summed-area table of the cells not ``OUTSIDE``: the boxes
        whose range sums to zero in it."""
        ox, oy, size, cols, rows = labels.grid
        reach = np.zeros((cols + 1, rows + 1), dtype=np.int64)
        reach[1:, 1:] = (
            (labels.labels != OUTSIDE).reshape(cols, rows).cumsum(0).cumsum(1)
        )
        c0, r0 = _cell(labels.grid, boxes[0], boxes[1])
        c1, r1 = _cell(labels.grid, boxes[2], boxes[3])
        c1, r1 = c1 + 1, r1 + 1
        return reach[c1, r1] - reach[c0, r1] - reach[c1, r0] + reach[c0, r0] == 0

    @pytest.mark.parametrize("scale, offset", [(1.0, 0.0), (1e-3, 1e6), (1e3, -7.5)])
    def test_table(self, scale, offset):
        polygons = [
            moved(p, scale, offset + 15 * i * scale, offset)
            for i, p in enumerate(TABLE)
        ]
        self.assert_decided(polygons, np.random.default_rng(13))

    def test_jittered_tiling(self, jittered_tiles):
        """Neighbours share jittered edges, so every tile's box overlaps
        its neighbours' and only the tiles' cores can be decided."""
        self.assert_decided(
            list(jittered_tiles.values()), np.random.default_rng(19),
            gaps=False,
        )

    @classmethod
    def assert_decided(cls, polygons, rng, gaps=True):
        """Every box of one label is that label's by the scalar
        predicates; labels read off the summed-area tables equal the
        cell-by-cell reading.  ``gaps``: the polygons leave cells
        outside them all (a tiling leaves none)."""
        labels = finest_labels(PolygonPass.of(dict(enumerate(polygons))))
        x0, y0, x1, y1 = TestOutsideBoxes.segments(labels.grid, rng)
        # Parked objects: a zero-length segment at every cell centre.
        ox, oy, size, cols, rows = labels.grid
        col, row = np.divmod(np.arange(cols * rows), rows)
        cx, cy = ox + (col + 0.5) * size, oy + (row + 0.5) * size
        x0, y0 = np.concatenate((x0, cx)), np.concatenate((y0, cy))
        x1, y1 = np.concatenate((x1, cx)), np.concatenate((y1, cy))
        boxes = (
            np.minimum(x0, x1), np.minimum(y0, y1),
            np.maximum(x0, x1), np.maximum(y0, y1),
        )
        label = labels.decided(*boxes)
        assert np.array_equal(label, cls.one_label(labels, boxes))
        assert np.array_equal(label == OUTSIDE, cls.reach_outside(labels, boxes))
        assert np.array_equal(labels.outside(*boxes), label == OUTSIDE)
        # Non-vacuous: segments decided inside, outside, and neither.
        assert (label >= 0).any() and (label == OUTSIDE).any() == gaps
        assert (label == MIXED).any()
        for k in np.flatnonzero(label != MIXED).tolist():
            segment = Segment(Point(x0[k], y0[k]), Point(x1[k], y1[k]))
            for p, polygon in enumerate(polygons):
                if p == label[k]:
                    assert polygon.clip_segment(segment) == [(0.0, 1.0)], k
                else:
                    assert not polygon.intersects_segment(segment), (k, p)


@st.composite
def star_polygons(draw):
    """A simple star-shaped polygon (vertices at increasing angles
    around a centre), at some coordinate scale and offset."""
    n = draw(st.integers(3, 9))
    radii = draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n))
    turns = sorted(draw(st.lists(
        st.integers(0, 359), min_size=n, max_size=n, unique=True,
    )))
    scale = draw(st.sampled_from([1e-3, 1.0, 37.0, 1e3]))
    cx = draw(st.sampled_from([0.0, 3.0, -250.0, 1e6]))
    cy = draw(st.sampled_from([0.0, 11.0, 1e6]))
    points = [
        Point(cx + scale * r * math.cos(math.radians(a)),
              cy + scale * r * math.sin(math.radians(a)))
        for r, a in zip(radii, turns)
    ]
    return Polygon(points)


class TestRandom:
    @settings(max_examples=12, deadline=None)
    @given(
        polygons=st.lists(star_polygons(), min_size=1, max_size=3),
        seed=st.integers(0, 2**16),
    )
    def test_star_polygons(self, polygons, seed):
        for name in ("numpy", "scalar"):
            set_kernel_backend(name)
            try:
                assert_decided_exact(polygons, np.random.default_rng(seed), name)
            finally:
                set_kernel_backend("numpy")


class TestLaziness:
    def test_grid_waits_for_enough_points(self):
        """A call under the floor builds nothing; the first call at or
        over it builds the one grid, the finest (``_LABEL_SPAN`` cells
        across the longer side), whatever its size, and every later
        call gets that grid."""
        floor = kernels._LABEL_MIN_POINTS
        fresh = PolygonPass.of({"square": SQUARE})
        assert fresh.labels_for(floor - 1) is None and fresh.labels is None
        built = fresh.labels_for(floor)
        assert built is not None
        assert fresh.labels_for(1) is built
        assert fresh.labels_for(10**6) is built
        spread = {i: moved(p, 1.0, 15 * i, 0.0) for i, p in enumerate(TABLE)}
        for polygons in ({"square": SQUARE}, spread):
            grids = {
                PolygonPass.of(polygons).labels_for(points).grid
                for points in (floor, 3_000, 10**6)
            }
            assert len(grids) == 1
            (grid,) = grids
            assert max(grid[3], grid[4]) == kernels._LABEL_SPAN + 1
            assert grid == kernels._label_geometry(
                PolygonPass.of(polygons).edges
            )

    def test_scalar_backend_decides_nothing(self, backend):
        passes = PolygonPass.of({"square": SQUARE})
        finest_labels(passes)
        assert (passes.labels_for(10**6) is None) == (backend == "scalar")


class TestCompleteness:
    def test_city_decides_points(self):
        """The record: on the 10k-sample city the prefilter's grid
        answers a share of the samples without a containment call."""
        city = build_city(
            CityConfig(cols=6, rows=6), rng=np.random.default_rng(20060109)
        )
        moft = stop_biased_moft(install_city_pois(city), 100, 100)
        polygons = city.gis.layer("Ln").elements(POLYGON)
        counter = TrajectoryIntersectionCounter(polygons, "grid")
        stats = PipelineStats()
        counter.matching_objects(moft, stats)
        share = stats.count("cell_decided_points") / len(moft)
        assert len(moft) == 10_000
        assert share > 0

    def test_city_store_decides_what_median_side_cells_cannot(self, monkeypatch):
        """The record of the one cell-size rule: a store build over the
        10k-sample city on the finest grid (129 x 129) decides a larger
        share of its dwell pairs than the same build on the grid the
        rule it replaced sized by the build's samples (one cell per
        sample: 99 x 99, 25 %), and that more than on cells an eighth of
        the median block side (the rule before: 49 x 49, 17 %)."""
        city = build_city(
            CityConfig(cols=6, rows=6), rng=np.random.default_rng(20060109)
        )
        moft = stop_biased_moft(install_city_pois(city), 100, 100)
        polygons = city.gis.layer("Ln").elements(POLYGON)
        time = TimeDimension.from_mapping(
            hourly(datetime(2006, 1, 9, 0, 0)), range(100)
        )

        def decided_share():
            obs = PipelineStats()
            store = PreAggStore(
                moft, time, "day", polygons, layer="Ln", kind=POLYGON, obs=obs
            )
            decided = obs.count("cell_decided_segments")
            pairs = decided + obs.count("clip_kernel_segments")
            return decided / pairs, store._polygons.labels.grid

        share, grid = decided_share()
        assert grid[3:] == (129, 129)

        def extent(edges):
            ox, oy = float(edges.bminx.min()), float(edges.bminy.min())
            return ox, oy, float(edges.bmaxx.max()) - ox, float(edges.bmaxy.max()) - oy

        def per_sample(edges):
            ox, oy, width, height = extent(edges)
            across, area, more = width + height, width * height, len(moft) - 1.0
            size = (across + math.sqrt(across * across + 4.0 * area * more)) / (
                2.0 * more
            ) * (1.0 + 2.0 ** -30)
            return ox, oy, size, int(width // size) + 1, int(height // size) + 1

        def median_side(edges):
            ox, oy, width, height = extent(edges)
            sides = np.sort(np.maximum(
                edges.bmaxx - edges.bminx, edges.bmaxy - edges.bminy
            ))
            size = float(sides[sides.size // 2]) / 8
            return ox, oy, size, int(width // size) + 1, int(height // size) + 1

        monkeypatch.setattr(kernels, "_label_geometry", per_sample)
        sized, sized_grid = decided_share()
        assert sized_grid[3:] == (99, 99)
        assert round(sized, 2) == 0.25
        monkeypatch.setattr(kernels, "_label_geometry", median_side)
        old, old_grid = decided_share()
        assert old_grid[3:] == (49, 49)
        assert round(old, 2) == 0.17
        assert share > sized > old + 0.05
