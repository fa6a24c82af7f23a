"""E14 (ablation) — row-at-a-time solver vs the lowered region.

``SpatioTemporalRegion.evaluate`` evaluates the Type-4 sample-semantics
shape as columns (Time atoms decided per distinct instant, containment
over the answer's polygon pass); the logical solver handles arbitrary
formulas binding by binding and is the oracle here.  Expected shape:
identical answers, with the lowered path winning by a growing factor as
the MOFT grows.
"""

import pytest

from repro.bench import Series, print_series, timed
from repro.query import EvaluationContext, RegionBuilder
from repro.query.region import _solved
from repro.synth import CityConfig, build_city, random_waypoint_moft
from repro.temporal import TimeDimension, hourly

from datetime import datetime

MOFT_SIZES = (500, 2_000, 8_000)


def _world(n_samples: int):
    city = build_city(CityConfig(cols=6, rows=6, seed=9))
    n_objects = max(10, n_samples // 40)
    n_instants = max(2, n_samples // n_objects)
    moft = random_waypoint_moft(
        city.bounding_box, n_objects, n_instants, speed=8.0, seed=9
    )
    time_dim = TimeDimension.from_mapping(
        hourly(datetime(2006, 1, 9, 0, 0)), range(n_instants)
    )
    ctx = EvaluationContext(city.gis, time_dim, moft)
    region = (
        RegionBuilder()
        .from_moft("FM")
        .during("timeOfDay", "Morning")
        .in_attribute_polygon(
            "neighborhood", value_filter=("income", "<", 2000)
        )
        .build(city.gis)
    )
    return ctx, region


def _solver_rows(region, ctx):
    """The solver's answer, as ``evaluate`` lists it."""
    return [
        dict(zip(region.output_variables, row))
        for row in sorted(_solved(region, ctx), key=repr)
    ]


@pytest.mark.parametrize("n_samples", MOFT_SIZES)
def test_lowered_path(benchmark, n_samples):
    ctx, region = _world(n_samples)
    lowered = benchmark(lambda: region.evaluate(ctx))
    assert lowered == _solver_rows(region, ctx)
    assert ctx.obs.count("regions_solved") == 0


@pytest.mark.parametrize("n_samples", MOFT_SIZES[:2])
def test_solver_path(benchmark, n_samples):
    ctx, region = _world(n_samples)
    assert isinstance(benchmark(lambda: _solved(region, ctx)), set)


def test_speedup_shape():
    solver_series = Series("solver (s)")
    lowered_series = Series("lowered (s)")
    speedup_series = Series("speedup")
    for n_samples in MOFT_SIZES:
        ctx, region = _world(n_samples)
        solver_time, solver_answer = timed(
            lambda: _solver_rows(region, ctx), repeat=1
        )
        lowered_time, lowered_answer = timed(
            lambda: region.evaluate(ctx), repeat=3
        )
        assert lowered_answer == solver_answer
        solver_series.add(n_samples, solver_time)
        lowered_series.add(n_samples, lowered_time)
        speedup_series.add(
            n_samples,
            solver_time / lowered_time if lowered_time else float("inf"),
        )
    print_series(
        "Row solver vs lowered region",
        [solver_series, lowered_series, speedup_series],
    )
    assert all(s > 1 for _, s in speedup_series.points)
