"""Shared worlds and schedule helpers for the ingest test campaign.

The campaign's one contract: a streaming ingest of any schedule —
shuffled, batched, with late arrivals routed to the side channel —
must, after watermark close, answer exactly like a one-shot batch load
of exactly the accepted samples.  The helpers here make that statement
mechanical:

* :func:`moft_samples` flattens a MOFT into ``(oid, t, x, y)`` rows;
* :func:`run_schedule` shuffles/batches/submits/closes one ingestor;
* :func:`accepted_samples` subtracts the late side channel;
* :func:`batch_reference` builds the one-shot reference world;
* :func:`count_payload` / :func:`through_payload` render answers as
  canonical JSON, so "identical" is a byte comparison — the same door
  every service result goes through.

Dwell time is the one aggregate compared with ``math.isclose``
(rel/abs 1e-9) instead of bytes: it is a float sum whose terms
associate differently between the per-flush incremental folds and the
single batch fold.  Counts and id sets stay exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime
from typing import Hashable, List, Sequence, Tuple

import numpy as np
import pytest

from repro.gis import POLYGON
from repro.ingest import IngestConfig, StoreSpec, StreamingIngestor
from repro.mo.moft import MOFT
from repro.preagg import PreAggStore
from repro.query.aggregate import total_dwell_time
from repro.query.evaluator import count_objects_through, objects_through
from repro.query.region import EvaluationContext
from repro.service.spec import canonical_json, result_payload
from repro.synth import CityConfig, build_city, figure1_instance
from repro.synth.movement import random_waypoint_moft
from repro.temporal.calendar import hourly
from repro.temporal.timedim import TimeDimension

from tests.parallel.oracle import DifferentialOracle

Sample = Tuple[Hashable, float, float, float]

TARGET = ("Ln", POLYGON)


def moft_samples(moft: MOFT) -> List[Sample]:
    """Flatten a MOFT into ``(oid, t, x, y)`` rows in insertion order."""
    oids = moft.oid_column()
    t, x, y = moft.as_arrays()
    return [
        (oids[i], float(t[i]), float(x[i]), float(y[i]))
        for i in range(len(moft))
    ]


def run_schedule(
    world: "StreamWorld",
    *,
    samples: Sequence[Sample] = None,
    batch_size: int = 4,
    lateness: float = 0.0,
    seed=None,
    compact_every: int = 4,
) -> StreamingIngestor:
    """Shuffle (when seeded), batch, submit and close one ingest run."""
    schedule = list(world.samples if samples is None else samples)
    if seed is not None:
        random.Random(seed).shuffle(schedule)
    ingestor = StreamingIngestor(
        world.gis,
        world.time,
        moft_name=world.moft_name,
        config=IngestConfig(
            allowed_lateness=lateness, compact_every=compact_every
        ),
        store_specs=(StoreSpec(world.granule, "Ln", POLYGON),),
    )
    for start in range(0, len(schedule), batch_size):
        batch = schedule[start:start + batch_size]
        ingestor.submit(
            [s[0] for s in batch],
            [s[1] for s in batch],
            [s[2] for s in batch],
            [s[3] for s in batch],
        )
    ingestor.close()
    return ingestor


def accepted_samples(
    submitted: Sequence[Sample], ingestor: StreamingIngestor
) -> List[Sample]:
    """``submitted`` minus the late side channel, in submitted order.

    ``(oid, t)`` is unique across a schedule (the rows come from one
    validated MOFT), so late keys identify samples unambiguously.
    """
    late = {
        (oid, float(t)) for oid, t, _, _ in ingestor.late_samples()
    }
    return [s for s in submitted if (s[0], float(s[1])) not in late]


def batch_reference(
    world: "StreamWorld", samples: Sequence[Sample]
) -> EvaluationContext:
    """One-shot batch load of exactly ``samples``, store registered."""
    if samples:
        moft = MOFT.from_columns(
            [s[0] for s in samples],
            [s[1] for s in samples],
            [s[2] for s in samples],
            [s[3] for s in samples],
            name=world.moft_name,
        )
    else:
        moft = MOFT(world.moft_name)
    context = EvaluationContext(world.gis, world.time, moft)
    if len(moft):
        elements = world.gis.layer("Ln").elements(POLYGON)
        context.register_preagg(
            PreAggStore(
                moft, world.time, world.granule, elements,
                layer="Ln", kind=POLYGON,
            )
        )
    return context


def _plain_ids(ids) -> list:
    return sorted(
        (i.item() if hasattr(i, "item") else i for i in ids), key=repr
    )


def count_payload(
    context: EvaluationContext,
    constraints=(),
    moft_name: str = "FM",
    window=None,
) -> str:
    """Canonical-JSON count answer (serial scan; the byte-compared form)."""
    count = count_objects_through(
        context, TARGET, list(constraints), moft_name=moft_name,
        window=window, use_preagg=False,
    )
    return canonical_json(result_payload("through", count))


def through_payload(
    context: EvaluationContext, constraints=(), moft_name: str = "FM"
) -> str:
    """Canonical-JSON sorted THROUGH id set (byte-compared)."""
    ids = objects_through(
        context, TARGET, list(constraints), moft_name=moft_name,
        use_preagg=False,
    )
    return canonical_json(_plain_ids(ids))


def dwell_value(
    context: EvaluationContext, constraints=(), moft_name: str = "FM"
) -> float:
    return total_dwell_time(
        context, TARGET, list(constraints), moft_name=moft_name,
        use_preagg=False,
    )


@dataclass
class StreamWorld:
    """A gis + time dimension plus the sample rows to stream into it.

    ``granule`` is the pre-agg granule level that partitions the
    world's instants contiguously ("hour" for Figure 1's one-day
    clock, "day" for the synth worlds whose hourly instants wrap the
    hour-of-day level after 24 steps).
    """

    gis: object
    time: TimeDimension
    samples: List[Sample]
    moft_name: str
    granule: str


@pytest.fixture(scope="session")
def fig1_context():
    return figure1_instance().context()


@pytest.fixture(scope="session")
def fig1_stream(fig1_context) -> StreamWorld:
    """The paper's Figure 1 instance as a streamable sample set."""
    return StreamWorld(
        fig1_context.gis,
        fig1_context.time,
        moft_samples(fig1_context.moft("FMbus")),
        "FMbus",
        "hour",
    )


@pytest.fixture(scope="session")
def small_synth_stream() -> StreamWorld:
    """A 2,000-sample synthetic world (fast enough for the tier-1 lane)."""
    city = build_city(
        CityConfig(cols=4, rows=4), rng=np.random.default_rng(11)
    )
    moft = random_waypoint_moft(
        city.bounding_box,
        n_objects=40,
        n_instants=50,
        speed=city.config.block_size / 2,
        rng=np.random.default_rng(5),
    )
    time_dim = TimeDimension.from_mapping(
        hourly(datetime(2006, 1, 9, 0, 0)), range(50)
    )
    return StreamWorld(city.gis, time_dim, moft_samples(moft), "FM", "day")


@pytest.fixture(scope="session")
def synth_10k_stream() -> StreamWorld:
    """The full 10,000-sample differential world (slow lane)."""
    city = build_city(
        CityConfig(cols=6, rows=6), rng=np.random.default_rng(20060109)
    )
    moft = random_waypoint_moft(
        city.bounding_box,
        n_objects=100,
        n_instants=100,
        speed=city.config.block_size / 2,
        rng=np.random.default_rng(42),
    )
    assert len(moft) == 10_000
    time_dim = TimeDimension.from_mapping(
        hourly(datetime(2006, 1, 9, 0, 0)), range(100)
    )
    return StreamWorld(city.gis, time_dim, moft_samples(moft), "FM", "day")


@pytest.fixture(scope="session")
def oracle() -> DifferentialOracle:
    return DifferentialOracle()
