"""Shared utilities for the benchmark suite.

The benchmarks under ``benchmarks/`` regenerate every table/figure-level
artifact of the paper (see DESIGN.md's experiment index).  This module
provides the common pieces: deterministic world construction at several
scales, a tiny timing helper independent of pytest-benchmark for sweeps,
and series containers the reporting module renders.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from repro.geometry.point import BoundingBox
from repro.mo.moft import MOFT
from repro.query.region import EvaluationContext
from repro.synth.city import CityConfig, SyntheticCity, build_city
from repro.synth.movement import random_waypoint_moft
from repro.temporal.calendar import hourly
from repro.temporal.timedim import TimeDimension


@dataclass(frozen=True)
class WorldScale:
    """One point of a scaling sweep."""

    name: str
    city_blocks: int
    n_objects: int
    n_instants: int


#: The default scale ladder used by the sweep benchmarks.
SCALES: Tuple[WorldScale, ...] = (
    WorldScale("small", 4, 20, 12),
    WorldScale("medium", 6, 60, 24),
    WorldScale("large", 8, 150, 24),
)


def build_world(
    scale: WorldScale, seed: int = 23
) -> Tuple[SyntheticCity, MOFT, TimeDimension]:
    """Build a deterministic (city, MOFT, time dimension) triple."""
    city = build_city(
        CityConfig(cols=scale.city_blocks, rows=scale.city_blocks, seed=seed)
    )
    moft = random_waypoint_moft(
        city.bounding_box,
        n_objects=scale.n_objects,
        n_instants=scale.n_instants,
        speed=city.config.block_size / 2,
        seed=seed,
    )
    from datetime import datetime

    time_dim = TimeDimension.from_mapping(
        hourly(datetime(2006, 1, 9, 0, 0)), range(scale.n_instants)
    )
    return city, moft, time_dim


def context_for(
    city: SyntheticCity,
    moft: MOFT,
    time_dim: TimeDimension,
    use_overlay: bool = True,
) -> EvaluationContext:
    """Wrap a generated world into an evaluation context."""
    return EvaluationContext(city.gis, time_dim, moft, use_overlay=use_overlay)


def timed(fn: Callable[[], object], repeat: int = 3) -> Tuple[float, object]:
    """Run ``fn`` ``repeat`` times; return (best wall seconds, last result)."""
    best = float("inf")
    result: object = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


def large_moft(
    n_objects: int = 500, n_instants: int = 200, seed: int = 23
) -> MOFT:
    """A big synthetic MOFT (default 100k samples) for storage benchmarks.

    Built directly from columns — constructing it row by row at this size
    is exactly the overhead the columnar engine exists to avoid.
    """
    box = BoundingBox(0.0, 0.0, 100.0, 100.0)
    return random_waypoint_moft(
        box,
        n_objects=n_objects,
        n_instants=n_instants,
        speed=5.0,
        seed=seed,
    )


@dataclass
class Series:
    """A named series of (x, y) measurements for reporting."""

    name: str
    points: List[Tuple[object, float]] = field(default_factory=list)

    def add(self, x: object, y: float) -> None:
        """Append one measurement."""
        self.points.append((x, y))
