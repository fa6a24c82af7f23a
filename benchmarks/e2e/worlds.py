"""Seeded benchmark inputs and the on-disk world cache.

Everything the program under test receives is generated here from
``--seed`` and handed over as files (``MOFTCOL`` tables) or plain
arrays; generation time is the benchmark's own cost and never part of
``setup_s``.

The *city* (streets, neighborhoods, schools, POI discs) is a fixed map:
its generator seed is a constant, so the geometric subquery answers the
same polygons on every run and only the moving objects, the arrival
order and the late arrivals change with ``--seed``.  A seed-dependent
map would move the share of matching objects — and with it every scan
latency — by far more than any change under test.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from repro.mo.moft import MOFT
from repro.synth import CityConfig, build_city, install_city_pois, stop_biased_moft
from repro.synth.movement import random_waypoint_moft
from repro.temporal.calendar import hourly
from repro.temporal.timedim import TimeDimension

HERE = Path(__file__).resolve().parent
#: One folder of ~7 MB per (seed, scale) ever run; ignored by git, and
#: ``rm -r benchmarks/e2e/.cache`` is always safe.
CACHE_DIR = HERE / ".cache"

CITY_SEED = 20060109
FIRST_INSTANT = datetime(2006, 1, 9, 0, 0)


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale (``full`` or ``smoke``)."""

    name: str
    n_objects: int
    n_instants: int
    #: Distance an ``FM`` object covers per instant, in city blocks.
    speed_blocks: float
    #: Instants of the world streamed by ``ingest_interleaved``.
    ingest_instants: int
    ingest_batch: int
    #: Jobs each of the two service clients submits per round.
    jobs_per_client: int
    #: Segments handed to each kernel probe.
    probe_segments: int


FULL = Scale("full", 2000, 50, 0.1, 12, 500, 30, 20000)
# 80 objects put the matching share within two standard deviations of
# the 90 % gate at 0.1 blocks per instant; half the speed centres it.
SMOKE = Scale("smoke", 80, 50, 0.05, 12, 40, 5, 1000)


def build_map():
    """The fixed 6x6 city with its 20 POI discs installed."""
    city = build_city(
        CityConfig(cols=6, rows=6), rng=np.random.default_rng(CITY_SEED)
    )
    pois = install_city_pois(city)
    return city, pois


def time_dimension(n_instants: int) -> TimeDimension:
    return TimeDimension.from_mapping(
        hourly(FIRST_INSTANT), range(n_instants)
    )


@dataclass(frozen=True)
class CityWorld:
    """Paths of the generated tables plus what generating them cost."""

    fm_path: Path
    poi_path: Path
    scale: Scale
    seed: int
    generation_s: float
    cache_hit: bool


def city_world(seed: int, scale: Scale) -> CityWorld:
    """Generate (or reuse) the ``FM`` and ``FMpoi`` tables of one seed.

    ``FM`` is a slow random-waypoint walk (``0.1 x block`` per instant:
    10-40 % of the objects never reach an answer polygon and are scanned
    in full, the paper's worst case); ``FMpoi`` hops between POI discs
    and dwells there, so stop/move segmentation finds real episodes.
    """
    params = json.dumps(
        {"v": 1, "city": CITY_SEED, **asdict(scale)}, sort_keys=True
    )
    digest = hashlib.sha256(params.encode()).hexdigest()[:12]
    folder = CACHE_DIR / f"{seed}-{digest}"
    fm_path, poi_path = folder / "fm.moft", folder / "fmpoi.moft"
    started = time.perf_counter()
    hit = fm_path.exists() and poi_path.exists()
    if not hit:
        city, pois = build_map()
        folder.mkdir(parents=True, exist_ok=True)
        fm = random_waypoint_moft(
            city.bounding_box,
            scale.n_objects,
            scale.n_instants,
            speed=scale.speed_blocks * city.config.block_size,
            rng=np.random.default_rng(seed),
            name="FM",
        )
        fmpoi = stop_biased_moft(
            pois,
            scale.n_objects,
            scale.n_instants,
            rng=np.random.default_rng(seed + 1),
            name="FMpoi",
        )
        # Write-then-rename: a run killed mid-save must not leave a
        # truncated table that the next run would take for a cache hit.
        for table, path in ((fm, fm_path), (fmpoi, poi_path)):
            partial = path.with_suffix(".partial")
            table.save(partial)
            partial.replace(path)
    return CityWorld(
        fm_path, poi_path, scale, seed, time.perf_counter() - started, hit
    )


def arrival_batches(world: CityWorld):
    """The ingest feed: ``FM``'s first instants in seeded arrival order.

    Samples arrive in event-time order perturbed by up to one instant of
    jitter; a seeded 2 % are held back 3.5 instants, past the allowed
    lateness of 2, so they reach the ingestor behind the watermark and
    must take the late side channel.  Returns a list of
    ``(oids, ts, xs, ys)`` list batches.
    """
    scale = world.scale
    moft = MOFT.load(world.fm_path)
    t, x, y = moft.as_arrays()
    oids = np.asarray(moft.oid_column())
    keep = t < scale.ingest_instants
    oids, t, x, y = oids[keep], t[keep], x[keep], y[keep]
    rng = np.random.default_rng(world.seed + 2)
    arrival = t + rng.uniform(0.0, 1.0, t.size)
    arrival += np.where(rng.uniform(size=t.size) < 0.02, 3.5, 0.0)
    order = np.argsort(arrival, kind="stable")
    oids, t, x, y = oids[order], t[order], x[order], y[order]
    step = scale.ingest_batch
    return [
        (
            oids[i:i + step].tolist(),
            t[i:i + step].tolist(),
            x[i:i + step].tolist(),
            y[i:i + step].tolist(),
        )
        for i in range(0, t.size, step)
    ]
