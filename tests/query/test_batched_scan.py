"""Differential tests: the batched scans vs the per-object walks.

Every trajectory scan hands the batch kernels the table's segment table
(all objects at once).  The per-object paths stay as the reference:

* matched id sets equal :meth:`TrajectoryIntersectionCounter
  ._object_matches`, object by object, under every flag combination
  (tables under ``BATCH_MIN_ROWS`` rows take the walk by themselves, so
  each is also scanned with that threshold at zero);
* dwell equals the per-object :func:`~repro.mo.operations.time_inside`
  sum at 1e-9;
* :func:`~repro.poi.store.poi_cells` equals, as a dict, the per-object
  :func:`~repro.poi.store._object_cells`.

Worlds: Figure 1, the 10k-sample city, and hypothesis tables on a
lattice that puts samples on polygon edges and vertices (boundary-
hugging and vertex-touching segments), repeats positions (stationary
pieces) and leaves objects with a single sample.
"""

import itertools
import math
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Point, Polygon, Polyline
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
from repro.mo.operations import time_inside
from repro.mo.trajectory import LinearInterpolationTrajectory
from repro.obs import EvaluationStats, PipelineStats
from repro.poi.store import _object_cells, poi_cells
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
from repro.temporal.calendar import hourly
from repro.temporal.timedim import TimeDimension

FLAGS = list(itertools.product((True, False), repeat=3))


def assert_scan_equals_walk(geometries, moft):
    """``matching_objects`` == ``_object_matches`` per object, with small
    tables left to the size rule and forced through the batched scan."""
    for early_exit, prefilter, use_index in FLAGS:
        counter = TrajectoryIntersectionCounter(
            geometries,
            use_index=use_index,
            early_exit=early_exit,
            vectorized_prefilter=prefilter,
        )
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
            assert stats.objects_scanned == len(moft.objects())
            assert stats.objects_matched == len(walked)


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
        cells = _object_cells(
            moft, oid, starts, pois, options.get("radius"),
            options.get("min_dwell", 0.0),
        )
        if cells:
            walked[oid] = cells
    obs, walk_obs = PipelineStats(), PipelineStats()
    assert poi_cells(moft, time, level, pois, obs=obs, **options) == walked
    for oid in moft.objects():
        _object_cells(
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
            assert counter._polygons is None
            assert_scan_equals_walk(geometries, fig1.moft)

    def test_mixed_answer_takes_the_walk(self, fig1):
        mixed = dict(fig1.gis.layer("Ln").elements(POLYGON))
        mixed.update(fig1.gis.layer("Lr").elements(POLYLINE))
        assert TrajectoryIntersectionCounter(mixed)._polygons is None
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
        assert child._inherited is not None
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
samples = st.lists(
    st.tuples(
        st.sampled_from(["A", "B", "C", "D", "E"]),
        st.integers(min_value=0, max_value=11),
        lattice,
        lattice,
    ),
    min_size=1,
    max_size=30,
    unique_by=lambda s: (s[0], s[1]),
)


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
    def test_every_pair_is_visited_without_early_exit(self, rows):
        _, _, moft = lattice_world(rows)
        # Single-sample objects take the walk, which counts its own way.
        moft = moft.restrict_objects(
            {oid for oid in moft.objects() if moft.sample_count(oid) > 1}
        )
        n_segments = len(moft) - len(moft.objects())
        lazy, eager = EvaluationStats(), EvaluationStats()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluator, "BATCH_MIN_ROWS", 0)
            for early_exit, stats in ((False, lazy), (True, eager)):
                TrajectoryIntersectionCounter(
                    SHAPES, early_exit=early_exit
                ).matching_objects(moft, stats)
        pairs = lazy.segment_checks + lazy.bbox_rejections
        assert pairs == n_segments * len(SHAPES)
        assert eager.segment_checks <= lazy.segment_checks

    @given(samples, st.sampled_from([None, (2.0, 9.0)]))
    @settings(deadline=None)
    def test_dwell(self, rows, window):
        gis, time, moft = lattice_world(rows)
        context = EvaluationContext(gis, time, moft)
        if window is not None and not (
            (moft.as_arrays()[0] >= 2) & (moft.as_arrays()[0] <= 9)
        ).any():
            return
        got = total_dwell_time(
            context, ("Ln", POLYGON), [], window=window, use_preagg=False
        )
        want = walked_dwell(moft, SHAPES, window)
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)

    @given(samples, st.sampled_from([0.0, 1.0]))
    @settings(deadline=None)
    def test_poi_cells(self, rows, min_dwell):
        _, time, moft = lattice_world(rows)
        assert_cells_equal_walk(moft, time, "hour", DISCS, min_dwell=min_dwell)
        centres = {gid: disc.center for gid, disc in DISCS.items()}
        assert_cells_equal_walk(moft, time, "hour", centres, radius=2.5)
