"""The equality legs of the retired ``benchmarks/bench_preagg_rollup.py``.

Its three steps — cold scan, warm store query, incremental update then
query — are timed by the e2e benchmark now (``benchmarks/e2e``:
``op.through_p50_ms`` / ``op.dwell_p50_ms`` on ``warm_preagg`` against
``cold_scan``, ``setup_s`` on ``warm_preagg``, ``round_ms`` on
``ingest_interleaved``, exactness-gated in the ``e2e-smoke`` CI lane).
What stays here, in tier-1 and on a tiny world, is what they asserted:
the store registers, the query routes through it, and the warm and the
updated answers equal the scan's.
"""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest

from repro.gis import POLYGON, POLYLINE
from repro.preagg import PreAggStore
from repro.query.evaluator import count_objects_through
from repro.query.region import EvaluationContext
from repro.synth import CityConfig, build_city
from repro.synth.movement import random_waypoint_moft
from repro.temporal.calendar import hourly
from repro.temporal.timedim import TimeDimension

TARGET = ("Ln", POLYGON)
CONSTRAINTS = [("intersects", ("Lr", POLYLINE))]


@pytest.fixture(scope="module")
def tiny_world():
    city = build_city(
        CityConfig(cols=3, rows=3), rng=np.random.default_rng(9)
    )
    moft = random_waypoint_moft(
        city.bounding_box,
        n_objects=20,
        n_instants=30,
        speed=city.config.block_size / 2,
        rng=np.random.default_rng(13),
    )
    time_dim = TimeDimension.from_mapping(
        hourly(datetime(2006, 1, 9, 0, 0)), range(30)
    )
    context = EvaluationContext(city.gis, time_dim, moft)
    return context, moft, city


def test_benchmark_steps_tiny(tiny_world):
    context, moft, city = tiny_world
    elements = city.gis.layer("Ln").elements(POLYGON)

    # Step 1: cold scan (the benchmark's baseline leg).
    cold = count_objects_through(
        context, TARGET, CONSTRAINTS, use_preagg=False
    )

    # Step 2: build + register the store; the warm leg must route
    # through it and agree exactly.
    store = PreAggStore(
        moft, context.time, "day", elements, layer="Ln", kind=POLYGON,
        obs=context.obs,
    )
    context.register_preagg(store)
    warm = count_objects_through(context, TARGET, CONSTRAINTS)
    assert context.obs.counters.get("preagg_hits", 0) == 1
    assert warm == cold

    # Step 3: append, incrementally update, re-query.
    box = city.bounding_box
    rng = np.random.default_rng(17)
    oids, ts, xs, ys = [], [], [], []
    for oid in ("late-1", "late-2"):
        for t in range(24, 30):
            oids.append(oid)
            ts.append(float(t))
            xs.append(float(rng.uniform(box.min_x, box.max_x)))
            ys.append(float(rng.uniform(box.min_y, box.max_y)))
    moft.extend_columns(oids, ts, xs, ys)
    assert store.is_stale()
    assert store.update() == "delta"
    updated = count_objects_through(context, TARGET, CONSTRAINTS)
    reference = count_objects_through(
        context, TARGET, CONSTRAINTS, use_preagg=False
    )
    assert updated == reference
    assert context.obs.counters["preagg_hits"] == 2
