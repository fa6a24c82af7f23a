"""The vectorized clip kernel is *exact*: bit-equal to the scalar path.

The kernel's contract is exactness by construction — status 0/1 answers
are only given to segments provably far from any boundary, plain
transversal boundary crossings are solved in batch from the same float
expressions the scalar code evaluates, and everything else falls back to
``Polygon.clip_segment``.  These tests pin that contract with randomized
and property-based equivalence against the scalar geometry (including a
strategy that aims at the boundary and must find only fallbacks there),
cross-check the numba-compilable loop form against the numpy
implementation, cover the backend feature flag (numba degrades to numpy
when absent, ``scalar`` disables classification and the crossing solver
entirely), and guard that the city dwell workload actually takes the
batch path.
"""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError
from repro.geometry import kernels
from repro.geometry.kernels import (
    classify_segments,
    clip_segments_batch,
    polygon_edge_arrays,
    segments_dwell,
    segments_fully_inside,
    segments_intersect,
    set_kernel_backend,
)
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.segment import Segment
from repro.gis import POLYGON
from repro.obs import PipelineStats
from repro.synth import CityConfig, build_city
from repro.synth.movement import random_waypoint_moft


@pytest.fixture(autouse=True)
def reset_backend():
    yield
    set_kernel_backend("numpy")


SQUARE = Polygon([Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)])
HOLED = Polygon(
    [Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)],
    holes=[[Point(4, 4), Point(6, 4), Point(6, 6), Point(4, 6)]],
)
DIAMOND = Polygon([Point(5, -1), Point(11, 5), Point(5, 11), Point(-1, 5)])
POLYGONS = [SQUARE, HOLED, DIAMOND]
# Non-convex shapes: the notch of the C has two reflex corners, a
# horizontal line through the zig-zag meets its boundary six times.
CSHAPE = Polygon(
    [
        Point(0, 0), Point(10, 0), Point(10, 3), Point(3, 3),
        Point(3, 7), Point(10, 7), Point(10, 10), Point(0, 10),
    ]
)
ZIGZAG = Polygon(
    [
        Point(0, 0), Point(2, 4), Point(4, 0), Point(6, 4), Point(8, 0),
        Point(10, 4), Point(10, 10), Point(8, 6), Point(6, 10),
        Point(4, 6), Point(2, 10), Point(0, 6),
    ]
)
SHAPES = {
    "square": SQUARE, "holed": HOLED, "diamond": DIAMOND,
    "cshape": CSHAPE, "zigzag": ZIGZAG,
}


def random_segments(n, rng, lo=-3.0, hi=13.0):
    x0 = rng.uniform(lo, hi, n)
    y0 = rng.uniform(lo, hi, n)
    x1 = rng.uniform(lo, hi, n)
    y1 = rng.uniform(lo, hi, n)
    # Mix in axis-aligned, degenerate, boundary-hugging and
    # vertex-touching segments — the cases a sloppy kernel gets wrong.
    x1[::7] = x0[::7]
    y1[::11] = y0[::11]
    x0[::13], y0[::13] = 0.0, rng.uniform(lo, hi, n)[::13]
    x0[::17], y0[::17] = 10.0, 10.0
    x1[5::17], y1[5::17] = 0.0, 0.0
    return x0, y0, x1, y1


def scalar_clips(polygon, x0, y0, x1, y1):
    return [
        polygon.clip_segment(
            Segment(Point(float(a), float(b)), Point(float(c), float(d)))
        )
        for a, b, c, d in zip(x0, y0, x1, y1)
    ]


def assert_all_answers_exact(polygon, x0, y0, x1, y1, dt=None):
    """All four batch answers, element by element, against the scalar
    methods; returns the counters of one ``segments_dwell`` call."""
    x0, y0, x1, y1 = (np.asarray(a, dtype=np.float64) for a in (x0, y0, x1, y1))
    if dt is None:
        dt = np.linspace(0.3, 2.9, len(x0))
    obs = PipelineStats()
    clips = clip_segments_batch(polygon, x0, y0, x1, y1)
    dwell, hits = segments_dwell(polygon, x0, y0, x1, y1, dt, obs=obs)
    intersects = segments_intersect(polygon, x0, y0, x1, y1)
    inside = segments_fully_inside(polygon, x0, y0, x1, y1)
    for i in range(len(x0)):
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
        assert inside[i] == (expected == [(0.0, 1.0)])
        # Bitwise, -0.0 and all: the same expression tree.
        assert dwell[i].tobytes() == np.float64(total).tobytes()
    return obs.counters


class TestExactEquivalence:
    @pytest.mark.parametrize("polygon", POLYGONS, ids=["square", "holed", "diamond"])
    def test_clips_bit_equal_to_scalar(self, polygon):
        rng = np.random.default_rng(7)
        x0, y0, x1, y1 = random_segments(2000, rng)
        batch = clip_segments_batch(polygon, x0, y0, x1, y1)
        assert batch == scalar_clips(polygon, x0, y0, x1, y1)

    @pytest.mark.parametrize("polygon", POLYGONS, ids=["square", "holed", "diamond"])
    def test_dwell_and_masks_match_scalar(self, polygon):
        rng = np.random.default_rng(11)
        x0, y0, x1, y1 = random_segments(1500, rng)
        dt = rng.uniform(0.1, 3.0, 1500)
        dwell, hits = segments_dwell(polygon, x0, y0, x1, y1, dt)
        inside = segments_fully_inside(polygon, x0, y0, x1, y1)
        intersects = segments_intersect(polygon, x0, y0, x1, y1)
        for i in range(1500):
            seg = Segment(
                Point(float(x0[i]), float(y0[i])),
                Point(float(x1[i]), float(y1[i])),
            )
            clips = polygon.clip_segment(seg)
            expected = 0.0
            for s0, s1 in clips:
                expected += (s1 - s0) * float(dt[i])
            assert dwell[i] == expected  # bitwise: same expression tree
            assert hits[i] == polygon.intersects_segment(seg)
            assert inside[i] == (clips == [(0.0, 1.0)])
            assert intersects[i] == polygon.intersects_segment(seg)

    def test_status_codes_are_sound(self):
        """Status 1 implies the scalar clip is the full segment; 0 none."""
        rng = np.random.default_rng(13)
        x0, y0, x1, y1 = random_segments(3000, rng)
        status = classify_segments(HOLED, x0, y0, x1, y1)
        assert set(np.unique(status)) <= {0, 1, 2}
        clips = scalar_clips(HOLED, x0, y0, x1, y1)
        for i, s in enumerate(status):
            if s == 1:
                assert clips[i] == [(0.0, 1.0)]
            elif s == 0:
                assert clips[i] == []

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(
            *(
                st.floats(min_value=-4, max_value=14, allow_nan=False)
                for _ in range(4)
            )
        )
    )
    def test_single_segment_property(self, coords):
        a, b, c, d = coords
        seg = Segment(Point(a, b), Point(c, d))
        for polygon in POLYGONS:
            batch = clip_segments_batch(
                polygon,
                np.array([a]), np.array([b]), np.array([c]), np.array([d]),
            )
            assert batch == [polygon.clip_segment(seg)]


class TestBackendFlag:
    def test_scalar_backend_still_exact(self):
        assert set_kernel_backend("scalar") == "scalar"
        rng = np.random.default_rng(19)
        x0, y0, x1, y1 = random_segments(300, rng)
        status = classify_segments(SQUARE, x0, y0, x1, y1)
        assert (status == 2).all()  # everything takes the scalar path
        batch = clip_segments_batch(SQUARE, x0, y0, x1, y1)
        assert batch == scalar_clips(SQUARE, x0, y0, x1, y1)

    def test_unknown_backend_raises(self):
        with pytest.raises(GeometryError):
            set_kernel_backend("gpu")


class TestEdgeArrayCache:
    def test_cached_on_first_use(self):
        polygon = Polygon.rectangle(0, 0, 5, 5)
        assert getattr(polygon, "_edge_arrays", None) is None
        edges = polygon_edge_arrays(polygon)
        assert polygon_edge_arrays(polygon) is edges

    def test_pickle_stays_lean_and_functional(self):
        polygon = Polygon.rectangle(0, 0, 5, 5)
        polygon_edge_arrays(polygon)  # populate the cache
        clone = pickle.loads(pickle.dumps(polygon))
        # The cache is rebuilt on demand, not shipped in the pickle.
        assert getattr(clone, "_edge_arrays", None) is None
        assert clone == polygon
        seg = Segment(Point(1, 1), Point(4, 4))
        assert clone.clip_segment(seg) == polygon.clip_segment(seg)
        x = np.array([2.0])
        y = np.array([2.0])
        assert clip_segments_batch(clone, x, y, x + 1, y + 1) == [[(0.0, 1.0)]]

    def test_bbox_is_cached_and_not_pickled(self):
        polygon = Polygon.rectangle(0, 0, 5, 5)
        assert polygon.bbox is polygon.bbox
        clone = pickle.loads(pickle.dumps(polygon))
        assert "_bbox" not in vars(clone)
        assert clone.bbox == polygon.bbox
        assert clone == polygon and hash(clone) == hash(polygon)


# -- the crossing solver ---------------------------------------------------------


def _edges_of(polygon):
    return [
        (
            (float(ring[i].x), float(ring[i].y)),
            (float(ring[(i + 1) % len(ring)].x), float(ring[(i + 1) % len(ring)].y)),
        )
        for ring in [polygon.shell, *polygon.holes]
        for i in range(len(ring))
    ]


#: Families whose one segment certainly has boundary contact (status 2
#: unless an ulp lifts it off the polygon's box); a ``parallel`` segment
#: may be decided in the far field instead.
CONTACT_KINDS = (
    "through_vertex", "ends_on_edge", "collinear", "reflex_corner",
    "midpoint_in_band",
)
#: ``parallel_far`` runs beside an edge *outside* the tolerance band
#: (2 x tolerance = 2e-8 on these shapes).  It can be a plain crossing of
#: some other edge — e.g. 1e-6 above the C's y = 7 and out through
#: x = 10 — which the solver may rightly take; only exactness is
#: asserted for it.
UNSOLVABLE_KINDS = CONTACT_KINDS + ("parallel",)


@st.composite
def boundary_cases(draw):
    """One (kind, polygon, segment) aimed at a degenerate configuration:
    nothing here is a plain transversal crossing, so the crossing solver
    must leave every one of them to the scalar path."""
    kind = draw(st.sampled_from(UNSOLVABLE_KINDS + ("parallel_far",)))
    angle = draw(st.floats(0.0, 6.283))
    reach = draw(st.floats(0.5, 3.0))
    dx, dy = reach * np.cos(angle), reach * np.sin(angle)
    if kind in ("reflex_corner", "midpoint_in_band"):
        polygon = CSHAPE
    else:
        polygon = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    (ax, ay), (bx, by) = draw(st.sampled_from(_edges_of(polygon)))
    ex, ey = bx - ax, by - ay
    if kind == "through_vertex":
        k = draw(st.floats(0.2, 2.0))
        seg = [ax - dx, ay - dy, ax + k * dx, ay + k * dy]
    elif kind == "ends_on_edge":
        t = draw(st.floats(0.0, 1.0))
        seg = [ax + t * ex + dx, ay + t * ey + dy, ax + t * ex, ay + t * ey]
    elif kind in ("collinear", "parallel", "parallel_far"):
        t0 = draw(st.floats(-0.5, 0.4))
        t1 = draw(st.floats(0.6, 1.5))
        off = 0.0
        if kind != "collinear":
            # Inside the band every piece midpoint hugs the edge.
            exponent = (-16.0, -8.0) if kind == "parallel" else (-7.5, -6.0)
            off = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(
                st.floats(*exponent)
            )
        nx, ny = -ey / np.hypot(ex, ey), ex / np.hypot(ex, ey)
        seg = [
            ax + t0 * ex + off * nx, ay + t0 * ey + off * ny,
            ax + t1 * ex + off * nx, ay + t1 * ey + off * ny,
        ]
    elif kind == "reflex_corner":
        # Across the tip of the C's notch at (3, 3): in, a sliver of
        # out, in — two cuts ``gap`` apart in parameter.
        gap = 10.0 ** draw(st.floats(-13.0, -8.0))
        half = draw(st.floats(1.0, 2.5))
        slope = draw(st.floats(0.5, 2.0))
        px = 3.0 + gap * 2.0 * half
        seg = [px - half, 3.0 + slope * half, px + half, 3.0 - slope * half]
    else:
        # Enters through x = 0 and then runs 0.9e-8 .. 1.9e-8 under the
        # notch edge y = 3: far enough from its end (3, 3) for every
        # (segment, edge) pair to be decided, too close for the piece
        # midpoint to be in the far field (2 x tolerance = 2e-8).
        eps = draw(st.floats(6e-9, 1.3e-8))
        seg = [-1.0, 3.0 - 2.0 * eps, 9.0, 3.0 - eps]
    for c in range(4):
        ulps = draw(st.integers(-2, 2))
        for _ in range(abs(ulps)):
            seg[c] = np.nextafter(seg[c], np.inf if ulps > 0 else -np.inf)
    return kind, polygon, seg


class TestBoundaryCasesStayScalar:
    @settings(max_examples=400, deadline=None)
    @given(boundary_cases())
    def test_exact_and_not_solved(self, case):
        kind, polygon, (a, b, c, d) = case
        counters = assert_all_answers_exact(polygon, [a], [b], [c], [d])
        if kind in UNSOLVABLE_KINDS:
            assert counters.get("clip_kernel_crossings", 0) == 0
        # An ulp can lift a segment that grazed an extreme vertex clean
        # off the polygon's box; the box prefilter then decides it, as
        # the scalar methods' own bbox check does.
        box = polygon.bbox
        off_the_box = (
            min(a, c) > box.max_x or max(a, c) < box.min_x
            or min(b, d) > box.max_y or max(b, d) < box.min_y
        )
        if kind in CONTACT_KINDS and not off_the_box:
            assert counters.get("clip_kernel_fallback", 0) == 1

    def test_each_family_by_hand(self):
        cases = {
            "through_vertex": (SQUARE, (-2.0, 8.0, 2.0, 12.0)),
            "ends_on_edge": (DIAMOND, (0.0, 0.0, 2.0, 2.0)),
            "collinear": (HOLED, (3.0, 4.0, 7.0, 4.0)),
            "parallel_1e-12": (SQUARE, (2.0, 1e-12, 8.0, 1e-12)),
            "reflex_corner": (CSHAPE, (1.0 + 4e-10, 5.0, 5.0 + 4e-10, 1.0)),
            "midpoint_in_band": (CSHAPE, (-1.0, 3.0 - 2e-8, 9.0, 3.0 - 1e-8)),
            "near_miss_inside": (SQUARE, (1.0, 1e-8, 9.0, 1.5e-8)),
        }
        for name, (polygon, (a, b, c, d)) in cases.items():
            counters = assert_all_answers_exact(polygon, [a], [b], [c], [d])
            assert counters.get("clip_kernel_crossings", 0) == 0, name
            assert counters.get("clip_kernel_fallback", 0) == 1, name

    def test_merged_runs_are_the_scalar_paths(self):
        """Two consecutive inside pieces only meet at a cut that is not
        a plain crossing (here: through reflex corners, and across a
        zero-width spike whose two edges coincide), so ``[(s0, s2)]``
        rather than ``[(s0, s1), (s1, s2)]`` is the scalar code's own
        merge; the solver never produces a shared cut."""
        through_reflex = (1.0, 1.0, 5.0, 5.0)
        assert CSHAPE.clip_segment(
            Segment(Point(1.0, 1.0), Point(5.0, 5.0))
        ) == [(0.0, 0.5)]
        spiked = Polygon(
            [
                Point(0, 0), Point(10, 0), Point(10, 10), Point(5, 10),
                Point(5, 5), Point(5, 10), Point(0, 10),
            ]
        )
        assert spiked.clip_segment(
            Segment(Point(1.0, 7.0), Point(9.0, 7.5))
        ) == [(0.0, 1.0)]
        for polygon, (a, b, c, d) in [
            (CSHAPE, through_reflex),
            (CSHAPE, (1.0, 5.0, 3.0, 3.0)),
            (spiked, (1.0, 7.0, 9.0, 7.5)),
            (spiked, (-1.0, 7.0, 11.0, 7.5)),
        ]:
            counters = assert_all_answers_exact(polygon, [a], [b], [c], [d])
            assert counters.get("clip_kernel_crossings", 0) == 0
            assert counters.get("clip_kernel_fallback", 0) == 1


class TestCrossingsSolvedInBatch:
    def test_many_crossings_per_segment(self):
        """Non-convex and holed shapes, 3+ cuts per segment: several
        clip intervals per row, folded into the dwell in ascending
        order (the float sum is order-sensitive in its last bit)."""
        rng = np.random.default_rng(23)
        n = 400
        for polygon, min_intervals in [(HOLED, 2), (CSHAPE, 2), (ZIGZAG, 3)]:
            # Nearly horizontal (holed, zig-zag) or nearly vertical (C)
            # chords right across the shape, tilted to stay generic.
            along = np.full(n, -1.0), np.full(n, 11.0)
            if polygon is HOLED:
                across = rng.uniform(4.2, 5.8, n), rng.uniform(4.2, 5.8, n)
            elif polygon is CSHAPE:
                across = rng.uniform(3.5, 9.5, n), rng.uniform(3.5, 9.5, n)
            else:
                across = rng.uniform(0.5, 3.5, n), rng.uniform(0.5, 3.5, n)
            if polygon is CSHAPE:
                x0, x1 = across
                y0, y1 = along
            else:
                x0, x1 = along
                y0, y1 = across
            dt = rng.uniform(0.1, 3.0, n)
            clips = scalar_clips(polygon, x0, y0, x1, y1)
            assert min(len(c) for c in clips) >= min_intervals
            counters = assert_all_answers_exact(polygon, x0, y0, x1, y1, dt)
            assert counters.get("clip_kernel_crossings", 0) == n
            assert counters.get("clip_kernel_fallback", 0) == 0

    def test_more_cuts_than_the_solver_handles_go_scalar(self):
        teeth = 2 * kernels._MAX_CUTS
        top = [Point(i, 4.0 if i % 2 else 0.0) for i in range(teeth + 1)]
        comb = Polygon(top + [Point(teeth, 9), Point(0, 9)])
        counters = assert_all_answers_exact(comb, [-1.0], [2.0], [teeth + 1.0], [2.3])
        assert counters.get("clip_kernel_crossings", 0) == 0
        assert counters["clip_kernel_fallback"] == 1

    def test_parked_objects_are_classified(self):
        """Zero-length segments: far-field points are decided in batch,
        points inside the tolerance band stay status 2."""
        x = np.array([5.0, 5.0, 20.0, -3.0, 0.0, 10.0, 5.0, 1e-9, 4.0])
        y = np.array([5.0, 1.0, 5.0, -3.0, 5.0, 10.0, 4.0, 5.0, 5.0 + 1e-12])
        status = classify_segments(HOLED, x, y, x, y)
        assert status.tolist() == [0, 1, 0, 0, 2, 2, 2, 2, 2]
        counters = assert_all_answers_exact(HOLED, x, y, x, y)
        assert counters["clip_kernel_fallback"] == 5

    def test_counters_say_what_ran(self):
        rng = np.random.default_rng(29)
        x0, y0, x1, y1 = random_segments(1200, rng)
        dt = np.ones(1200)
        status = classify_segments(CSHAPE, x0, y0, x1, y1)
        decided = int(np.count_nonzero(status != 2))
        obs = PipelineStats()
        segments_dwell(CSHAPE, x0, y0, x1, y1, dt, obs=obs)
        crossings = obs.count("clip_kernel_crossings")
        fallback = obs.count("clip_kernel_fallback")
        assert crossings > 0 and fallback > 0 and decided > 0
        assert obs.count("clip_kernel_segments") == 1200
        assert decided + crossings + fallback == 1200

        set_kernel_backend("scalar")
        scalar_obs = PipelineStats()
        segments_dwell(CSHAPE, x0, y0, x1, y1, dt, obs=scalar_obs)
        assert scalar_obs.count("clip_kernel_crossings") == 0
        assert scalar_obs.count("clip_kernel_fallback") == 1200
        assert scalar_obs.count("clip_kernel_segments") == 1200

    def test_work_arrays_are_chunk_bounded(self, monkeypatch):
        """~1 000 edges x 20k crossing segments: nothing is allocated in
        proportion to rows x edges beyond one chunk of rows."""
        chunk, n_edges, n = 256, 1000, 20000
        monkeypatch.setattr(kernels, "_CHUNK", chunk)
        polygon = Polygon.regular(Point(0.0, 0.0), 5.0, n_edges)
        polygon_edge_arrays(polygon)
        rng = np.random.default_rng(31)
        # Every segment runs from inside the ring to outside it.
        a0, a1 = rng.uniform(0.0, 6.283, (2, n))
        r0, r1 = rng.uniform(0.0, 4.0, n), rng.uniform(6.0, 9.0, n)
        x0, y0 = r0 * np.cos(a0), r0 * np.sin(a0)
        x1, y1 = r1 * np.cos(a1), r1 * np.sin(a1)
        dt = np.ones(n)
        obs = PipelineStats()
        tracemalloc.start()
        try:
            dwell, hits = segments_dwell(polygon, x0, y0, x1, y1, dt, obs=obs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one_pairwise_array = 8 * chunk * n_edges
        # One float array over all rows x edges would be 78 such chunks.
        assert peak < 40 * one_pairwise_array
        assert obs.count("clip_kernel_crossings") > 0.99 * n
        assert hits.all() and (dwell > 0).all() and (dwell < 1).all()
        sample = slice(0, n, n // 24)
        assert_all_answers_exact(
            polygon, x0[sample], y0[sample], x1[sample], y1[sample]
        )


class TestCityDwellTakesTheBatchPath:
    def test_fallback_share_and_bits(self):
        """The fold of ``PreAggStore._fold_segments`` on a seeded city:
        boundary crossings are solved in batch (a silent return to the
        scalar loop fails here, not only in the benchmark) and the dwell
        vector is the scalar backend's, bit for bit."""
        city = build_city(
            CityConfig(cols=4, rows=4), rng=np.random.default_rng(20060109)
        )
        moft = random_waypoint_moft(
            city.bounding_box, 150, 30,
            speed=0.1 * city.config.block_size,
            rng=np.random.default_rng(5), name="FM",
        )
        polygons = city.gis.layer("Ln").elements(POLYGON)

        def fold(obs):
            parts = []
            for batch in moft.segments():
                dt = batch.t1 - batch.t0
                for gid in sorted(polygons, key=repr):
                    polygon = polygons[gid]
                    near = batch.near(polygon.bbox)
                    if near.size:
                        dwell, hits = segments_dwell(
                            polygon, *batch.ends(near), dt[near], obs=obs
                        )
                        parts += [dwell, hits.astype(np.float64)]
            return np.concatenate(parts)

        obs = PipelineStats()
        batched = fold(obs)
        segments = obs.count("clip_kernel_segments")
        assert segments > 2000
        assert obs.count("clip_kernel_crossings") > 0
        assert obs.count("clip_kernel_fallback") <= 0.02 * segments
        set_kernel_backend("scalar")
        scalar_obs = PipelineStats()
        assert fold(scalar_obs).tobytes() == batched.tobytes()
        assert scalar_obs.count("clip_kernel_fallback") == segments
