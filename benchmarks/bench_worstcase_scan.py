"""E9 — Section 5: "In the worst case, the whole trajectory must be checked."

Adversarial trajectories (never intersecting the answer geometries) force a
full scan of every segment; favourable trajectories (hitting early) let the
early-exit optimization stop after a handful of checks.  The benchmark
verifies the linear-vs-constant shape and times both.
"""

import pytest

from repro.bench import Series, print_series
from repro.geometry import BoundingBox, Polygon
from repro.mo import MOFT
from repro.query import EvaluationStats, TrajectoryIntersectionCounter
from repro.synth import adversarial_moft

CITY_BOX = BoundingBox(0, 0, 100, 100)
CITY = {"city": Polygon.rectangle(0, 0, 100, 100)}
TRAJECTORY_LENGTHS = (10, 50, 200)


def _early_hit_moft(n_objects: int, n_instants: int) -> MOFT:
    """Objects that start inside the city and then leave."""
    moft = MOFT("FM")
    for i in range(n_objects):
        for t in range(n_instants):
            moft.add(f"runner{i}", t, 50.0 + 200.0 * t / n_instants, 50.0)
    return moft


def _visited(stats: EvaluationStats) -> int:
    """Segments the scan looked at: tested exactly or rejected by bbox."""
    return stats.count("segment_checks") + stats.count("bbox_rejections")


@pytest.mark.parametrize("n_instants", TRAJECTORY_LENGTHS)
def test_adversarial_full_scan(benchmark, n_instants):
    moft = adversarial_moft(CITY_BOX, n_objects=20, n_instants=n_instants)
    counter = TrajectoryIntersectionCounter(CITY, "serial")

    def _run():
        stats = EvaluationStats()
        count = counter.count(moft, stats)
        return count, stats

    count, stats = benchmark(_run)
    assert count == 0
    # Every segment of every trajectory is visited: the paper's worst case.
    assert _visited(stats) == 20 * (n_instants - 1)


@pytest.mark.parametrize("n_instants", TRAJECTORY_LENGTHS)
def test_early_exit_constant(benchmark, n_instants):
    moft = _early_hit_moft(20, n_instants)
    counter = TrajectoryIntersectionCounter(CITY, "serial")

    def _run():
        stats = EvaluationStats()
        count = counter.count(moft, stats)
        return count, stats

    count, stats = benchmark(_run)
    assert count == 20
    # Early exit: one check per object regardless of trajectory length.
    assert stats.count("segment_checks") == 20


def test_scan_cost_shape():
    """Worst case grows linearly with samples; early exit stays flat."""
    adversarial = Series("adversarial checks")
    favourable = Series("early-exit checks")
    for n in TRAJECTORY_LENGTHS:
        moft_a = adversarial_moft(CITY_BOX, 20, n)
        moft_f = _early_hit_moft(20, n)
        counter = TrajectoryIntersectionCounter(CITY, "serial")
        sa, sf = EvaluationStats(), EvaluationStats()
        counter.count(moft_a, sa)
        counter.count(moft_f, sf)
        adversarial.add(n, _visited(sa))
        favourable.add(n, _visited(sf))
    print_series("Worst-case scan cost", [adversarial, favourable])
    a_values = [v for _, v in adversarial.points]
    f_values = [v for _, v in favourable.points]
    assert a_values[-1] > a_values[0] * 10  # linear growth
    assert f_values[0] == f_values[-1]  # flat
