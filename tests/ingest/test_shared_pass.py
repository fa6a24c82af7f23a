"""Ingest snapshots and maintained stores read their layer's one pass.

Every snapshot builds its own context, and every flush folds into a
cloned store; the polygon pass (edge table, grid, decided cells) of an
answer is the layer's, built once for all of them.
"""

from __future__ import annotations

import pickle
from datetime import datetime

import numpy as np

from repro.gis import POLYGON
from repro.ingest import IngestConfig, StoreSpec, StreamingIngestor
from repro.obs import PipelineStats
from repro.query.evaluator import count_objects_through, geometric_subquery
from repro.query.region import EvaluationContext
from repro.synth import CityConfig, build_city
from repro.synth.movement import random_waypoint_moft
from repro.temporal.calendar import hourly
from repro.temporal.timedim import TimeDimension

from tests.ingest.conftest import moft_samples

CONSTRAINTS = [("intersects", ("Lr", "polyline"))]


def city_feed():
    city = build_city(CityConfig(cols=4, rows=4), rng=np.random.default_rng(5))
    time = TimeDimension.from_mapping(
        hourly(datetime(2006, 1, 9, 0, 0)), range(48)
    )
    moft = random_waypoint_moft(
        city.bounding_box, n_objects=60, n_instants=48,
        speed=city.config.block_size / 2, rng=np.random.default_rng(6),
    )
    rows = sorted(moft_samples(moft), key=lambda row: row[1])
    return city.gis, time, [rows[i:i + 480] for i in range(0, len(rows), 480)]


def test_snapshots_and_the_store_share_the_layers_pass():
    gis, time, batches = city_feed()
    ingestor = StreamingIngestor(
        gis, time, config=IngestConfig(allowed_lateness=0),
        store_specs=(StoreSpec("day", "Ln", POLYGON),),
    )
    layer = gis.layer("Ln")
    whole = layer.geometry_index(POLYGON)
    stats = PipelineStats()
    snapshots, answers = [], []
    for batch in batches:
        ingestor.submit(*map(list, zip(*batch)))
        snapshot = ingestor.snapshot()
        context = snapshot.context()
        answers.append(count_objects_through(
            context, ("Ln", POLYGON), CONSTRAINTS, use_preagg=False,
            stats=stats,
        ))
        snapshots.append(snapshot)
        # The maintained store (a new clone per flush) folds through the
        # layer's pass over its whole polygon answer.
        assert snapshot.stores[0]._polygons is whole
    first, last = snapshots[0].context(), snapshots[-1].context()
    ids = geometric_subquery(first, ("Ln", POLYGON), CONSTRAINTS)
    assert first is not last
    passes = first.geometry_index("Ln", POLYGON, ids)
    assert last.geometry_index("Ln", POLYGON, ids) is passes
    # One build for every snapshot's scan.
    assert stats.count("grid_index_builds") == 1
    assert stats.count("grid_index_cache_hits") == len(batches) - 1
    # The answer of a world with no index kept (a pickle keeps none).
    cold = EvaluationContext(
        pickle.loads(pickle.dumps(gis)), time, snapshots[-1].moft
    )
    assert answers[-1] == count_objects_through(
        cold, ("Ln", POLYGON), CONSTRAINTS, use_preagg=False
    )
