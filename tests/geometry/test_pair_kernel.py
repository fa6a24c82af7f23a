"""One kernel call over (polygon, segment) pairs, and the broad phase
that makes them.

* An edge table over several polygons (different edge counts, one with
  a hole) answers every pair exactly as the per-polygon scalar methods
  do, bit for bit, under both kernel backends: dwell, hit, clip
  intervals, full containment, and point containment.
* :func:`~repro.geometry.index.candidate_pairs` returns exactly the
  pairs of the brute-force box test, in (polygon, segment) order.
* The pair kernel over one city batch allocates no more at its peak
  than the per-polygon loop it replaces.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import kernels
from repro.geometry.index import Grid, candidate_pairs
from repro.geometry.kernels import (
    EdgeTable,
    PolygonPass,
    pairs_dwell,
    pairs_intersect,
    segments_dwell,
    set_kernel_backend,
)
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.segment import Segment
from repro.gis import POLYGON
from repro.query.vectorized import pairs_contain
from repro.synth import CityConfig, build_city
from repro.synth.movement import random_waypoint_moft

from tests.conftest import segments_near
from tests.geometry.test_clip_kernel import (
    CSHAPE,
    DIAMOND,
    HOLED,
    SQUARE,
    boundary_cases,
    random_segments,
)

TABLE = [SQUARE, HOLED, DIAMOND, CSHAPE]


@pytest.fixture(params=["numpy", "scalar"])
def backend(request):
    set_kernel_backend(request.param)
    yield request.param
    set_kernel_backend("numpy")


def assert_pairs_exact(pos, x0, y0, x1, y1, table=TABLE):
    """Every pair answer against the scalar methods of its polygon
    (position ``p`` is ``table[p]``)."""
    x0, y0, x1, y1 = (np.asarray(a, dtype=np.float64) for a in (x0, y0, x1, y1))
    pos = np.asarray(pos, dtype=np.intp)
    edges = EdgeTable(table)
    dt = np.linspace(0.3, 2.9, len(x0))
    dwell, hits = pairs_dwell(edges, pos, x0, y0, x1, y1, dt)
    intersects = pairs_intersect(edges, pos, x0, y0, x1, y1)
    res = kernels._resolve(edges, pos, x0, y0, x1, y1, None, want_hits=False)
    contained = pairs_contain(edges, pos, x0, y0)
    full = res.status == 1
    full[res.rows] = (
        (res.count == 1) & (res.lo[:, 0] == 0.0) & (res.hi[:, 0] == 1.0)
    )
    clips = [[(0.0, 1.0)] if s == 1 else [] for s in res.status.tolist()]
    for i, n, los, his in zip(
        res.rows.tolist(), res.count.tolist(), res.lo.tolist(), res.hi.tolist()
    ):
        clips[i] = list(zip(los[:n], his[:n]))
    for i in range(len(x0)):
        polygon = table[pos[i]]
        seg = Segment(
            Point(float(x0[i]), float(y0[i])), Point(float(x1[i]), float(y1[i]))
        )
        expected = polygon.clip_segment(seg)
        hit = polygon.intersects_segment(seg)
        total = 0.0
        if hit:
            for s0, s1 in expected:
                total += (s1 - s0) * float(dt[i])
        assert clips[i] == expected
        assert hits[i] == hit and intersects[i] == hit
        assert full[i] == (expected == [(0.0, 1.0)])
        assert dwell[i].tobytes() == np.float64(total).tobytes()
        assert contained[i] == polygon.contains_point(seg.start)


@pytest.mark.usefixtures("backend")
class TestOneTableManyPolygons:
    def test_random_pairs(self):
        rng = np.random.default_rng(41)
        x0, y0, x1, y1 = random_segments(600, rng)
        pos = rng.integers(0, len(TABLE), 600)
        assert_pairs_exact(pos, x0, y0, x1, y1)

    def test_a_table_of_one_is_the_polygon_cache(self):
        one = kernels.polygon_edge_arrays(HOLED)
        assert one.polygons == (HOLED,) and kernels.polygon_edge_arrays(HOLED) is one
        table = EdgeTable(TABLE)
        assert table.edge_offsets.tolist() == [0, 4, 12, 16, 24]
        assert table.ring_first.tolist() == [0, 1, 3, 4, 5]
        assert table.ring_offsets.tolist() == [0, 4, 8, 12, 16, 24]

    def test_jittered_tiling_pairs(self, jittered_tiles):
        """Tiles that share jittered edges: random chords, and chords
        between the tiles' own vertices (along a shared edge, across a
        tile, through a shared vertex), each paired with its tile and
        with a neighbour."""
        tiles = list(jittered_tiles.values())
        rng = np.random.default_rng(43)
        x0, y0, x1, y1 = rng.uniform(-2.0, 32.0, (4, 400))
        pos = rng.integers(0, len(tiles), 400)
        vertex_pos, ends = [], []
        for p, tile in enumerate(tiles):
            ring = tile.shell
            for i, a in enumerate(ring):
                for b in (ring[(i + 1) % len(ring)], ring[(i + 3) % len(ring)]):
                    for q in (p, (p + 1) % len(tiles), (p + 3) % len(tiles)):
                        vertex_pos.append(q)
                        ends.append((a.x, a.y, b.x, b.y))
        ends = np.array(ends).T
        assert_pairs_exact(
            np.concatenate((pos, vertex_pos)),
            *(np.concatenate((a, b)) for a, b in zip((x0, y0, x1, y1), ends)),
            table=tiles,
        )

    @settings(max_examples=150, deadline=None)
    @given(st.lists(boundary_cases(), min_size=1, max_size=6), st.data())
    def test_boundary_aimed_pairs(self, cases, data):
        """Segments aimed at one shape's boundary, each paired with a
        shape of the table (its own or another)."""
        pos, coords = [], []
        for _, polygon, seg in cases:
            own = TABLE.index(polygon) if polygon in TABLE else None
            pos.append(
                own if own is not None and data.draw(st.booleans())
                else data.draw(st.integers(0, len(TABLE) - 1))
            )
            coords.append(seg)
        assert_pairs_exact(pos, *np.array(coords).T)


def brute_force(boxes, x0, y0, x1, y1):
    minx, maxx = np.minimum(x0, x1), np.maximum(x0, x1)
    miny, maxy = np.minimum(y0, y1), np.maximum(y0, y1)
    pos, seg = [], []
    for p, box in enumerate(boxes):
        near = np.flatnonzero(
            ~((minx > box.max_x) | (maxx < box.min_x)
              | (miny > box.max_y) | (maxy < box.min_y))
        )
        pos += [p] * near.size
        seg += near.tolist()
    return np.array(pos, dtype=np.intp), np.array(seg, dtype=np.intp)


def grid_city(n=5, size=10.0):
    """Rectangles that share their edges, plus one spanning them all."""
    polygons = {
        (i, j): Polygon.rectangle(i * size, j * size, (i + 1) * size, (j + 1) * size)
        for i in range(n) for j in range(n)
    }
    polygons["big"] = Polygon.rectangle(5.0, 5.0, n * size - 5.0, n * size - 5.0)
    return polygons


coordinate = st.floats(-40.0, 90.0, allow_nan=False)


class TestBroadPhase:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(coordinate, coordinate, coordinate, coordinate),
                 min_size=1, max_size=40),
        st.sampled_from(["all", "odd"]),
    )
    def test_equals_the_brute_force_box_test(self, segments, which):
        polygons = grid_city()
        ids = list(polygons)[::2] if which == "odd" else list(polygons)
        x0, y0, x1, y1 = np.array(segments, dtype=np.float64).T
        # Zero-length segments (parked objects, and samples as points).
        x1[::3], y1[::3] = x0[::3], y0[::3]
        pos, seg = candidate_pairs(
            Grid.of({gid: polygons[gid] for gid in ids}),
            np.minimum(x0, x1), np.minimum(y0, y1),
            np.maximum(x0, x1), np.maximum(y0, y1),
        )
        want_pos, want_seg = brute_force(
            [polygons[gid].bbox for gid in ids], x0, y0, x1, y1
        )
        assert pos.tolist() == want_pos.tolist()
        assert seg.tolist() == want_seg.tolist()

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.tuples(coordinate, coordinate, coordinate, coordinate),
                 min_size=1, max_size=40),
    )
    def test_jittered_tiling_equals_the_brute_force_box_test(
        self, jittered_tiles, segments
    ):
        """Tiles whose boxes overlap their neighbours' (shared jittered
        edges), not only touch them."""
        x0, y0, x1, y1 = (np.array(segments, dtype=np.float64).T + 20.0) / 3.0
        pos, seg = candidate_pairs(
            Grid.of(jittered_tiles), np.minimum(x0, x1), np.minimum(y0, y1),
            np.maximum(x0, x1), np.maximum(y0, y1),
        )
        want_pos, want_seg = brute_force(
            [tile.bbox for tile in jittered_tiles.values()], x0, y0, x1, y1
        )
        assert pos.tolist() == want_pos.tolist()
        assert seg.tolist() == want_seg.tolist()

    def test_long_segments_and_points_on_shared_edges(self):
        polygons = grid_city()
        ids = list(polygons)
        # Across the whole grid, far outside it, and exactly on the
        # edges and corners the rectangles share.
        x0 = np.array([-100.0, -100.0, 200.0, 10.0, 20.0, 0.0, 30.0])
        y0 = np.array([-100.0, 25.0, 200.0, 10.0, 0.0, 50.0, 30.0])
        x1 = np.array([200.0, 200.0, 300.0, 10.0, 20.0, 50.0, 30.0])
        y1 = np.array([200.0, 25.0, 300.0, 10.0, 50.0, 0.0, 30.0])
        pos, seg = candidate_pairs(
            Grid.of(polygons), np.minimum(x0, x1), np.minimum(y0, y1),
            np.maximum(x0, x1), np.maximum(y0, y1),
        )
        want_pos, want_seg = brute_force(
            [polygons[gid].bbox for gid in ids], x0, y0, x1, y1
        )
        assert pos.tolist() == want_pos.tolist()
        assert seg.tolist() == want_seg.tolist()
        # The corner point (10, 10) meets four squares and the big one.
        assert int((seg == 3).sum()) == 5
        assert not (seg == 2).any()


class TestPeakMemory:
    def test_pair_kernel_peaks_no_higher_than_the_polygon_loop(
        self, monkeypatch
    ):
        """One 16k-segment city batch: the pair kernel, chunked by pairs
        and (pair, edge) elements, against the per-polygon loop it
        replaces, which handed the kernel each polygon's box-filtered
        segments in chunks of 4096 rows.  Inputs are gathered before
        either is measured."""
        city = build_city(
            CityConfig(cols=6, rows=6), rng=np.random.default_rng(20060109)
        )
        moft = random_waypoint_moft(
            city.bounding_box, 400, 50, speed=0.1 * city.config.block_size,
            rng=np.random.default_rng(5), name="FM",
        )
        polygons = dict(
            sorted(city.gis.layer("Ln").elements(POLYGON).items(), key=repr)
        )
        batch = next(moft.segments())
        assert len(batch) > 15000
        dt = batch.t1 - batch.t0
        passes = PolygonPass.of(polygons)
        pos, at = candidate_pairs(passes.grid, *batch.boxes())
        pair_args = (*batch.ends(at), dt[at])
        loop_args = [
            (polygon, *batch.ends(near), dt[near])
            for polygon in polygons.values()
            for near in [segments_near(batch, polygon.bbox)]
        ]

        def peak(run):
            run()  # caches
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        pairs = peak(lambda: pairs_dwell(passes.edges, pos, *pair_args))
        monkeypatch.setattr(kernels, "_CHUNK", 4096)
        monkeypatch.setattr(kernels, "_CHUNK_EDGES", 1 << 40)
        loop = peak(lambda: [segments_dwell(*args) for args in loop_args])
        assert pairs <= loop
