"""E8 — Section 5's evaluation strategy: overlay precomputation vs naive.

The paper proposes precomputing the layer overlay so geometric subqueries
reduce to id joins.  This benchmark measures the full pipeline (geometric
subquery + trajectory intersection) under both strategies across world
scales.

Expected shape: once the overlay is precomputed, the overlay strategy
answers geometric subqueries in near-constant time, while the naive
strategy rescans all layer pairs per query — the gap grows with layer
complexity.
"""

import pytest

from repro.bench import SCALES, Series, build_world, context_for, print_series, timed
from repro.gis import NODE, POLYGON, POLYLINE
from repro.query import count_objects_through, geometric_subquery

CONSTRAINTS = [
    ("intersects", ("Lr", POLYLINE)),
    ("contains", ("Lsto", NODE)),
]


@pytest.mark.parametrize("scale", SCALES, ids=[s.name for s in SCALES])
@pytest.mark.parametrize("strategy", ["overlay", "naive"])
def test_pipeline_strategies(benchmark, scale, strategy):
    city, moft, time_dim = build_world(scale)
    ctx = context_for(city, moft, time_dim, use_overlay=(strategy == "overlay"))
    if strategy == "overlay":
        # Piet: the overlay is precomputed before queries arrive.
        ctx.gis.overlay().precompute_all()

    def _run():
        return count_objects_through(ctx, ("Lc", POLYGON), CONSTRAINTS)

    count = benchmark(_run)
    assert count >= 0


def test_strategies_agree_and_gap_grows():
    """The two strategies agree everywhere; report the timing series."""
    overlay_series = Series("overlay (s)")
    naive_series = Series("naive (s)")
    ratio_series = Series("naive/overlay")
    for scale in SCALES:
        city, moft, time_dim = build_world(scale)
        octx = context_for(city, moft, time_dim, use_overlay=True)
        octx.gis.overlay().precompute_all()
        nctx = context_for(city, moft, time_dim, use_overlay=False)

        o_ids = geometric_subquery(octx, ("Lc", POLYGON), CONSTRAINTS)
        n_ids = geometric_subquery(nctx, ("Lc", POLYGON), CONSTRAINTS)
        assert o_ids == n_ids

        o_time, _ = timed(
            lambda: geometric_subquery(octx, ("Lc", POLYGON), CONSTRAINTS)
        )
        n_time, _ = timed(
            lambda: geometric_subquery(nctx, ("Lc", POLYGON), CONSTRAINTS)
        )
        overlay_series.add(scale.name, o_time)
        naive_series.add(scale.name, n_time)
        ratio_series.add(scale.name, n_time / o_time if o_time else float("inf"))
    print_series(
        "Geometric subquery: overlay vs naive",
        [overlay_series, naive_series, ratio_series],
    )
    # The overlay strategy must win at every scale once precomputed.
    assert all(r > 1 for _, r in ratio_series.points)

