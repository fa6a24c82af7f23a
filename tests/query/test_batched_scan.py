"""Differential tests: the batched scans vs the per-object walks.

Every trajectory scan hands the batch kernels the table's segment table
(all objects at once).  The per-object paths stay as the reference:

* matched id sets equal :meth:`TrajectoryIntersectionCounter
  ._object_matches`, object by object, in both shapes of the scan
  (``serial`` and ``grid``; tables under ``BATCH_MIN_ROWS`` rows take
  the walk by themselves, so each is also scanned with that threshold
  at zero);
* dwell equals the per-object :func:`~repro.mo.operations.time_inside`
  sum at 1e-9;
* the POI cell table (``tests/poi/oracle.py``'s ``poi_cells``) equals,
  as a dict, the per-object walk ``object_cells`` of the same module.

Worlds: Figure 1, the 10k-sample city, and hypothesis tables on a
lattice that puts samples on polygon edges and vertices (boundary-
hugging and vertex-touching segments), repeats positions (stationary
pieces) and leaves objects with a single sample.
"""

import math
from contextlib import contextmanager
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Point, Polygon, Polyline
from repro.geometry.point import BoundingBox
from repro.geometry.kernels import PolygonPass, kernel_backend
from repro.geometry.poi import Poi
from repro.gis import (
    ALL,
    NODE,
    POINT,
    POLYGON,
    POLYLINE,
    GISDimensionInstance,
    GISDimensionSchema,
    LayerHierarchy,
)
from repro.mo import MOFT
from repro.mo.moft import SegmentIndex
from repro.mo.operations import time_inside
from repro.mo.trajectory import LinearInterpolationTrajectory
from repro.obs import EvaluationStats, PipelineStats
from repro.query import evaluator
from repro.query.aggregate import total_dwell_time
from repro.query.evaluator import TrajectoryIntersectionCounter
from repro.query.region import EvaluationContext
from repro.synth import (
    CityConfig,
    build_city,
    figure1_instance,
    install_city_pois,
    stop_biased_moft,
)
from repro.synth.movement import random_waypoint_moft
from repro.temporal.calendar import hourly
from repro.temporal.timedim import TimeDimension

from tests.conftest import finest_labels, jittered_tiling
from tests.poi.oracle import object_cells, poi_cells

#: The two shapes of the through scan: the unindexed walk with no
#: prefilter, and the indexed, prefiltered scan of every other strategy.
SCAN_STRATEGIES = ("serial", "grid")


def assert_scan_equals_walk(geometries, moft):
    """``matching_objects`` == ``_object_matches`` per object, with small
    tables left to the size rule and forced through the batched scan."""
    for strategy in SCAN_STRATEGIES:
        counter = TrajectoryIntersectionCounter(geometries, strategy)
        walked = {
            oid
            for oid in moft.objects()
            if counter._object_matches(moft, oid, EvaluationStats())
        }
        for batch_min_rows in (evaluator.BATCH_MIN_ROWS, 0):
            stats = EvaluationStats()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(evaluator, "BATCH_MIN_ROWS", batch_min_rows)
                assert counter.matching_objects(moft, stats) == walked
            assert stats.count("objects_scanned") == len(moft.objects())
            assert stats.count("objects_matched") == len(walked)


def assert_walks_count_alike(geometries, moft):
    """The ``grid`` counter's walk (one broad phase, candidates in id
    order) finds and counts what the ``serial`` walk (every box) does:
    over all objects at once, and object by object."""
    index = moft.segment_index()
    objects = np.arange(len(index.oids))
    walks = []
    for strategy in SCAN_STRATEGIES:
        counter = TrajectoryIntersectionCounter(geometries, strategy)
        hit = np.zeros(objects.shape[0], dtype=bool)
        stats, each = EvaluationStats(), EvaluationStats()
        counter._walk(moft, index, objects, hit, stats)
        matched = [
            counter._object_matches(moft, oid, each) for oid in index.oids
        ]
        assert hit.tolist() == matched
        counts = [
            stats.count(name) for name in ("segment_checks", "bbox_rejections")
        ]
        assert counts == [
            each.count(name) for name in ("segment_checks", "bbox_rejections")
        ]
        walks.append((hit.tolist(), counts))
    assert walks[0] == walks[1]


def walked_dwell(moft, polygons, window=None):
    total = 0.0
    for oid in moft.objects():
        sample = moft.trajectory_sample(oid)
        if window is not None:
            kept = [p for p in sample if window[0] <= p[0] <= window[1]]
            if len(kept) < 2:
                continue
            sample = type(sample)(kept)
        if len(sample) < 2:
            continue
        trajectory = LinearInterpolationTrajectory(sample)
        total += sum(time_inside(trajectory, p) for p in polygons.values())
    return total


def assert_cells_equal_walk(moft, time, level, pois, **options):
    starts = np.asarray(time.granules(level).starts, dtype=np.float64)
    walked = {}
    for oid in moft.objects():
        cells = object_cells(
            moft, oid, starts, pois, options.get("radius"),
            options.get("min_dwell", 0.0),
        )
        if cells:
            walked[oid] = cells
    obs, walk_obs = PipelineStats(), PipelineStats()
    assert poi_cells(moft, time, level, pois, obs=obs, **options) == walked
    for oid in moft.objects():
        object_cells(
            moft, oid, starts, pois, options.get("radius"),
            options.get("min_dwell", 0.0), obs=walk_obs,
        )
    for name in ("stop_episodes", "disc_kernel_segments"):
        assert obs.count(name) == walk_obs.count(name)
    return walked


# -- Figure 1 -----------------------------------------------------------------


@pytest.fixture(scope="module")
def fig1():
    return figure1_instance(with_pois=True)


class TestFigure1:
    def test_polygons(self, fig1):
        polygons = fig1.gis.layer("Ln").elements(POLYGON)
        assert_scan_equals_walk(polygons, fig1.moft)

    def test_polylines_and_nodes_take_the_walk(self, fig1):
        for layer, kind in (("Lr", POLYLINE), ("Ls", NODE)):
            geometries = fig1.gis.layer(layer).elements(kind)
            counter = TrajectoryIntersectionCounter(geometries)
            assert counter._pass is None
            assert_scan_equals_walk(geometries, fig1.moft)

    def test_indexed_walk_counts_what_the_serial_walk_counts(self, fig1):
        for layer, kind in (("Ln", POLYGON), ("Lr", POLYLINE), ("Ls", NODE)):
            geometries = fig1.gis.layer(layer).elements(kind)
            assert_walks_count_alike(geometries, fig1.moft)
            # A non-polygon answer is all walk: the scans count alike too.
            if kind != POLYGON:
                serial, grid = EvaluationStats(), EvaluationStats()
                TrajectoryIntersectionCounter(geometries, "serial") \
                    .matching_objects(fig1.moft, serial)
                TrajectoryIntersectionCounter(geometries, "grid") \
                    .matching_objects(fig1.moft, grid)
                names = ("segment_checks", "bbox_rejections", "objects_matched")
                assert [serial.count(n) for n in names] == [
                    grid.count(n) for n in names
                ]

    def test_mixed_answer_takes_the_walk(self, fig1):
        mixed = dict(fig1.gis.layer("Ln").elements(POLYGON))
        mixed.update(fig1.gis.layer("Lr").elements(POLYLINE))
        assert TrajectoryIntersectionCounter(mixed)._pass is None
        assert_scan_equals_walk(mixed, fig1.moft)

    def test_dwell(self, fig1):
        context = fig1.context()
        polygons = fig1.gis.layer("Ln").elements(POLYGON)
        for window in (None, (2.0, 5.0)):
            got = total_dwell_time(
                context, ("Ln", POLYGON), [], "FMbus", window=window,
                use_preagg=False,
            )
            want = walked_dwell(fig1.moft, polygons, window)
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)

    def test_poi_cells(self, fig1):
        pois = fig1.gis.layer("Lp").elements("poi")
        assert assert_cells_equal_walk(fig1.moft, fig1.time, "hour", pois)


# -- the 10k-sample city ------------------------------------------------------


@pytest.fixture(scope="module")
def city():
    built = build_city(
        CityConfig(cols=6, rows=6), rng=np.random.default_rng(20060109)
    )
    pois = install_city_pois(built)
    time = TimeDimension.from_mapping(
        hourly(datetime(2006, 1, 9, 0, 0)), range(100)
    )
    return built, pois, time, stop_biased_moft(pois, 100, 100)


class TestCity:
    def test_polygons(self, city):
        built, _, _, moft = city
        polygons = built.gis.layer("Ln").elements(POLYGON)
        some = dict(sorted(polygons.items(), key=repr)[::5])
        assert_scan_equals_walk(some, moft)

    def test_windowed_child_table(self, city):
        """A ``mask_rows`` child scans over the index it inherited."""
        built, _, _, moft = city
        polygons = built.gis.layer("Ln").elements(POLYGON)
        some = dict(sorted(polygons.items(), key=repr)[:3])
        moft.segment_index()
        child = moft.mask_rows(moft.as_arrays()[0] % 7 < 3)

        def no_sort(cls, *columns):
            raise AssertionError("the child sorted its own index")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SegmentIndex, "build", classmethod(no_sort))
            child.segment_index()
        assert_scan_equals_walk(some, child)

    def test_dwell(self, city):
        built, _, time, moft = city
        context = EvaluationContext(built.gis, time, moft)
        polygons = built.gis.layer("Ln").elements(POLYGON)
        stats = PipelineStats()
        got = total_dwell_time(
            context, ("Ln", POLYGON), [], window=(24.0, 47.0),
            use_preagg=False, stats=stats,
        )
        want = walked_dwell(moft, polygons, (24.0, 47.0))
        assert want > 0
        assert math.isclose(got, want, rel_tol=1e-9)
        # The scan is visible: rows, stage, pairs and kernel counters.
        n_rows = int(((moft.as_arrays()[0] >= 24) & (moft.as_arrays()[0] <= 47)).sum())
        assert stats.count("scan_rows") == n_rows
        assert stats.seconds("segment_scan") > 0
        pairs = stats.count("segment_checks") + stats.count("bbox_rejections")
        assert pairs == (n_rows - len(moft.objects())) * len(polygons)
        # The window's 2 300 segments build a label grid (the rule's
        # floor is 1 024 points): the pairs are kernel rows or decided.
        if kernel_backend() == "numpy":  # (the scalar reference decides none)
            assert stats.count("cell_decided_segments") > 0
        assert stats.count("clip_kernel_segments") + stats.count(
            "cell_decided_segments"
        ) == stats.count("segment_checks")

    def test_dwell_decided_segments_skip_the_kernel(self, city):
        """On a window with more segments than label cells the dwell pass
        decides segments in one label's cells: each is still a pair
        (``segment_checks``), but never the kernel's."""
        built, _, time, moft = city
        context = EvaluationContext(built.gis, time, moft)
        polygons = built.gis.layer("Ln").elements(POLYGON)
        stats = PipelineStats()
        got = total_dwell_time(
            context, ("Ln", POLYGON), [], window=(24.0, 71.0),
            use_preagg=False, stats=stats,
        )
        want = walked_dwell(moft, polygons, (24.0, 71.0))
        assert math.isclose(got, want, rel_tol=1e-9)
        if kernel_backend() == "numpy":  # (the scalar reference decides none)
            assert stats.count("cell_decided_segments") > 0
        assert stats.count("clip_kernel_segments") + stats.count(
            "cell_decided_segments"
        ) == stats.count("segment_checks")

    @pytest.mark.parametrize("restricted", [False, True])
    def test_through_counts_its_kernel_work(self, city, restricted):
        """The through leaf hands the kernel exactly its broad-phase
        pairs, and counts the kernel into the scan's stats, over the
        whole table or a window of its rows (``serial``: the sample
        prefilter would prove every object here)."""
        built, _, _, moft = city
        polygons = built.gis.layer("Ln").elements(POLYGON)
        some = dict(sorted(polygons.items(), key=repr)[::4])
        t = moft.as_arrays()[0]
        rows = ((t >= 24) & (t <= 47)) if restricted else None
        stats = EvaluationStats()
        TrajectoryIntersectionCounter(some, "serial").matching_objects(
            moft, stats, rows=rows
        )
        assert stats.count("segment_checks") > 0
        assert stats.count("clip_kernel_segments") == stats.count("segment_checks")

    def test_dwell_counts_into_the_context_by_default(self, city):
        built, _, time, moft = city
        context = EvaluationContext(built.gis, time, moft)
        total_dwell_time(context, ("Ln", POLYGON), [], use_preagg=False)
        assert context.obs.count("scan_rows") == len(moft)
        assert context.obs.count("clip_kernel_segments") > 0

    def test_poi_cells(self, city):
        _, pois, time, moft = city
        assert assert_cells_equal_walk(moft, time, "day", pois)
        assert_cells_equal_walk(moft, time, "day", pois, min_dwell=2.0)

    def test_poi_cells_of_some_objects(self, city):
        _, pois, time, moft = city
        some = sorted(moft.objects())[::9]
        full = poi_cells(moft, time, "day", pois)
        assert poi_cells(moft, time, "day", pois, oids=some) == {
            oid: full[oid] for oid in some if oid in full
        }


# -- hypothesis tables --------------------------------------------------------

#: A square, and a notched square with a hole: lattice points 0, 2, 4, 6,
#: 8, 10 hit their edges and vertices exactly.
SHAPES = {
    "square": Polygon.rectangle(2, 2, 6, 6),
    "notched": Polygon(
        [Point(6, 0), Point(10, 0), Point(10, 10), Point(4, 10), Point(4, 8),
         Point(6, 8)],
        holes=[[Point(7, 2), Point(9, 2), Point(9, 4), Point(7, 4)]],
    ),
}
DISCS = {
    "centre": Poi(Point(4, 4), 2.0),
    "corner": Poi(Point(8, 8), 1.0),
    "far": Poi(Point(-3, 5), 1.5),
}
LINES = {"diagonal": Polyline([Point(0, 0), Point(5, 5), Point(10, 5)])}

lattice = st.integers(min_value=-1, max_value=11).map(float)
#: Lattice points in the notched square's east half, clear of its edges
#: and its hole: the label grid's cells there (1.25 units) are decided
#: inside it, so a segment between two such points is a decided segment.
east = st.tuples(
    st.sampled_from([8.0, 9.0]), st.sampled_from([5.0, 6.0, 7.0, 8.0])
)
samples = st.lists(
    st.tuples(
        st.sampled_from(["A", "B", "C", "D", "E"]),
        st.integers(min_value=0, max_value=11),
        st.one_of(st.tuples(lattice, lattice), east),
    ).map(lambda s: (s[0], s[1], *s[2])),
    min_size=1,
    max_size=30,
    unique_by=lambda s: (s[0], s[1]),
)


@contextmanager
def label_rule(forced):
    """:meth:`PolygonPass.labels_for` as it is, or *forced*: a pass
    builds its (finest) label grid at its first call, as
    ``tests/preagg/test_decided_segments.py`` does, so the lattice
    tables, all under the rule's floor, reach the decided branch."""
    with pytest.MonkeyPatch.context() as patch:
        if forced:
            patch.setattr(
                PolygonPass, "labels_for",
                lambda self, points: finest_labels(self),
            )
        yield


def lattice_world(rows):
    schema = GISDimensionSchema(
        [LayerHierarchy("Ln", [(POINT, POLYGON), (POLYGON, ALL)])], []
    )
    gis = GISDimensionInstance(schema)
    for gid, polygon in SHAPES.items():
        gis.add_geometry("Ln", POLYGON, gid, polygon)
    time = TimeDimension.from_explicit_rollups(
        [("timeId", t, "hour", t // 4) for t in range(12)]
    )
    return gis, time, MOFT.from_columns(*map(list, zip(*rows)))


class TestLatticeTables:
    @given(samples)
    @settings(deadline=None)
    def test_matching(self, rows):
        _, _, moft = lattice_world(rows)
        assert_scan_equals_walk(SHAPES, moft)
        assert_scan_equals_walk(LINES, moft)

    @given(samples)
    @settings(deadline=None)
    def test_indexed_walk_counts_what_the_serial_walk_counts(self, rows):
        _, _, moft = lattice_world(rows)
        assert_walks_count_alike(SHAPES, moft)
        assert_walks_count_alike(LINES, moft)

    @given(samples)
    @settings(deadline=None)
    def test_every_pair_is_visited_without_early_exit(self, rows):
        """The dwell leaf has no early exit: its pairs and rejections
        make up segments x polygons, and the through scan, which stops
        an object at its first hit, checks at most those pairs (under
        the label rule and with a forced grid)."""
        gis, time, moft = lattice_world(rows)
        n_segments = len(moft) - len(moft.objects())
        # Single-sample objects take the walk, which counts its own way.
        paths = moft.restrict_objects(
            {oid for oid in moft.objects() if moft.sample_count(oid) > 1}
        )
        for forced in (False, True):
            dwell = EvaluationStats()
            with label_rule(forced):
                total_dwell_time(
                    EvaluationContext(gis, time, moft), ("Ln", POLYGON), [],
                    use_preagg=False, stats=dwell,
                )
            pairs = dwell.count("segment_checks") + dwell.count(
                "bbox_rejections"
            )
            assert pairs == n_segments * len(SHAPES)
            with pytest.MonkeyPatch.context() as patch, label_rule(forced):
                patch.setattr(evaluator, "BATCH_MIN_ROWS", 0)
                for strategy in SCAN_STRATEGIES:
                    through = EvaluationStats()
                    TrajectoryIntersectionCounter(
                        SHAPES, strategy
                    ).matching_objects(paths, through)
                    assert through.count("segment_checks") <= dwell.count(
                        "segment_checks"
                    )

    def test_dwell(self):
        """Each drawn table's dwell leaf under the label rule and with a
        forced label grid; the record: some drawn table decides a
        segment under the forced grid (the east-half points)."""
        decided = []

        @given(samples, st.sampled_from([None, (2.0, 9.0)]))
        @settings(deadline=None)
        def check(rows, window):
            gis, time, moft = lattice_world(rows)
            if window is not None and not (
                (moft.as_arrays()[0] >= 2) & (moft.as_arrays()[0] <= 9)
            ).any():
                return
            want = walked_dwell(moft, SHAPES, window)
            for forced in (False, True):
                stats = PipelineStats()
                with label_rule(forced):
                    got = total_dwell_time(
                        EvaluationContext(gis, time, moft), ("Ln", POLYGON),
                        [], window=window, use_preagg=False, stats=stats,
                    )
                assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
                assert stats.count("clip_kernel_segments") + stats.count(
                    "cell_decided_segments"
                ) == stats.count("segment_checks")
                if forced:
                    decided.append(stats.count("cell_decided_segments"))

        check()
        assert any(decided)

    @given(samples, st.sampled_from([0.0, 1.0]))
    @settings(deadline=None)
    def test_poi_cells(self, rows, min_dwell):
        _, time, moft = lattice_world(rows)
        assert_cells_equal_walk(moft, time, "hour", DISCS, min_dwell=min_dwell)
        centres = {gid: disc.center for gid, disc in DISCS.items()}
        assert_cells_equal_walk(moft, time, "hour", centres, radius=2.5)


# -- a jittered tiling ----------------------------------------------------------


def jittered_world(seed=23):
    """:func:`~tests.conftest.jittered_tiling` as layer ``Ln``, and a
    random-waypoint table over it and past its border (40 objects x 30
    instants: over the label rule's floor)."""
    gis = GISDimensionInstance(GISDimensionSchema(
        [LayerHierarchy("Ln", [(POINT, POLYGON), (POLYGON, ALL)])], []
    ))
    for gid, tile in jittered_tiling().items():
        gis.add_geometry("Ln", POLYGON, gid, tile)
    time = TimeDimension.from_explicit_rollups(
        [("timeId", t, "hour", t // 4) for t in range(30)]
    )
    moft = random_waypoint_moft(
        BoundingBox(-2.0, -2.0, 32.0, 32.0), 40, 30, speed=3.0, seed=seed
    )
    return gis, time, moft


class TestJitteredTiling:
    """Tiles whose boxes overlap their neighbours' along shared jittered
    edges: the scans and the dwell leaf against the per-object walk."""

    def test_polygons(self):
        gis, _, moft = jittered_world()
        tiles = gis.layer("Ln").elements(POLYGON)
        assert_scan_equals_walk(tiles, moft)
        assert_walks_count_alike(tiles, moft)

    @pytest.mark.parametrize("window", [None, (4.5, 21.0)])
    def test_dwell(self, window):
        gis, time, moft = jittered_world()
        tiles = gis.layer("Ln").elements(POLYGON)
        want = walked_dwell(moft, tiles, window)
        for forced in (False, True):
            stats = PipelineStats()
            with label_rule(forced):
                got = total_dwell_time(
                    EvaluationContext(gis, time, moft), ("Ln", POLYGON), [],
                    window=window, use_preagg=False, stats=stats,
                )
            assert math.isclose(got, want, rel_tol=1e-9)
            assert stats.count("clip_kernel_segments") + stats.count(
                "cell_decided_segments"
            ) == stats.count("segment_checks")
            if forced and kernel_backend() == "numpy":
                assert stats.count("cell_decided_segments") > 0

