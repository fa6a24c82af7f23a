"""One clip-kernel call per early-exit round of the batched through scan.

The scan makes two rounds: every object's first segment, read straight
off the segment index, and then the rest of the pending objects'
segments, batch by batch.  Each round gathers its (polygon, segment)
pairs across segment batches and hands them to the kernel in one call
(again only when they reach a batch's worth), because a call costs a
fixed ~1 ms whatever its size.  A spy counts the calls on a table of
two segment batches whose pairs fit in one; the answer and the scan
counters must be those of the per-object walk's reference.
"""

import numpy as np
import pytest

from repro.geometry import kernels
from repro.gis import POLYGON
from repro.mo import moft as moft_module
from repro.obs import EvaluationStats
from repro.query.evaluator import TrajectoryIntersectionCounter
from repro.synth import CityConfig, build_city
from repro.synth.movement import random_waypoint_moft


@pytest.fixture(scope="module")
def world():
    city = build_city(
        CityConfig(cols=6, rows=6), rng=np.random.default_rng(20060109)
    )
    moft = random_waypoint_moft(
        city.bounding_box, 400, 50, speed=0.1 * city.config.block_size,
        rng=np.random.default_rng(5), name="FM",
    )
    polygons = city.gis.layer("Ln").elements(POLYGON)
    return moft, dict(sorted(polygons.items(), key=repr)[::6])


def spied(monkeypatch):
    calls = []
    real = kernels.pairs_intersect

    def spy(edges, pos, *ends, **options):
        calls.append(pos.shape[0])
        return real(edges, pos, *ends, **options)

    monkeypatch.setattr(kernels, "pairs_intersect", spy)
    return calls


@pytest.mark.parametrize("strategy", ["serial", "grid"])
def test_early_exit_scan_makes_at_most_two_kernel_calls(
    world, monkeypatch, strategy
):
    moft, polygons = world
    assert len(moft) > moft_module.SEGMENT_BATCH_ROWS
    counter = TrajectoryIntersectionCounter(polygons, strategy)
    walked = {
        oid for oid in moft.objects()
        if counter._object_matches(moft, oid, EvaluationStats())
    }
    calls = spied(monkeypatch)
    stats = EvaluationStats()
    assert counter.matching_objects(moft, stats) == walked
    assert stats.count("segment_checks") <= moft_module.SEGMENT_BATCH_ROWS
    assert len(calls) <= 2
    assert sum(calls) == stats.count("segment_checks")
    # (The sample prefilter of ``grid`` may leave the rounds no pair.)
    assert calls or strategy == "grid"


def test_gathered_pairs_flush_at_a_batch(world, monkeypatch):
    """Pairs beyond a batch's worth go in more calls; nothing else
    moves (the pending sets, hence every count, are the same)."""
    moft, polygons = world
    counter = TrajectoryIntersectionCounter(polygons, "serial")
    want_stats = EvaluationStats()
    want = counter.matching_objects(moft, want_stats)
    calls = spied(monkeypatch)
    monkeypatch.setattr(moft_module, "SEGMENT_BATCH_ROWS", 512)
    stats = EvaluationStats()
    assert counter.matching_objects(moft, stats) == want
    assert len(calls) > 1 and sum(calls) == stats.count("segment_checks")
    for name in ("segment_checks", "bbox_rejections", "clip_kernel_segments"):
        assert stats.count(name) == want_stats.count(name), name
