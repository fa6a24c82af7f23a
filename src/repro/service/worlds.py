"""Named evaluation worlds a service instance binds to.

A job stores *what* to compute; the service process decides *against
which data*.  A :class:`ServiceWorld` bundles the evaluation context
with the Piet-QL layer bindings queries resolve against, and
:func:`load_world` builds the two canonical worlds by name:

* ``fig1`` — the paper's exact Figure 1 / Table 1 instance (MOFT
  ``FMbus``; tiny, answers checkable by eye) — the default for the CLI;
* ``synth`` — the 6×6-block synthetic city with the 10,000-sample
  random-waypoint MOFT the differential suites use, generated from
  fixed seeds so every process that loads it sees the same bits.

Streaming worlds: ``load_world(name, streaming=True)`` builds the same
GIS and Time dimensions but replaces the batch-loaded MOFT with an
empty :class:`~repro.ingest.StreamingIngestor` (plus an hour-granule
pre-agg store over the neighborhood polygons).  Query jobs then execute
against :meth:`ServiceWorld.query_context` — the *pinned current
snapshot* of the ingestor — so workers serve consistent answers while
``ingest`` jobs stream samples in concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Dict, Optional, Tuple

from repro.errors import ServiceError
from repro.pietql.executor import LayerBinding
from repro.query.region import EvaluationContext

#: World names :func:`load_world` accepts.
WORLD_NAMES: Tuple[str, ...] = ("fig1", "synth")

#: Piet-QL layer bindings of the Figure 1 instance.
FIG1_BINDINGS: Dict[str, LayerBinding] = {
    "neighborhoods": LayerBinding("Ln", "polygon"),
    "rivers": LayerBinding("Lr", "polyline"),
    "schools": LayerBinding("Ls", "node"),
}

#: Piet-QL layer bindings of the synthetic city.
SYNTH_BINDINGS: Dict[str, LayerBinding] = {
    "cities": LayerBinding("Lc", "polygon"),
    "neighborhoods": LayerBinding("Ln", "polygon"),
    "rivers": LayerBinding("Lr", "polyline"),
    "stores": LayerBinding("Lsto", "node"),
    "schools": LayerBinding("Ls", "node"),
}


@dataclass
class ServiceWorld:
    """An evaluation context plus the bindings queries resolve against.

    When ``ingestor`` is set the world is *streaming*: ``ingest`` jobs
    feed the ingestor, and query jobs must evaluate against
    :meth:`query_context` — the context of the ingestor's current
    published snapshot — rather than the static ``context``.
    """

    name: str
    context: EvaluationContext
    bindings: Dict[str, LayerBinding] = field(default_factory=dict)
    ingestor: Optional[object] = None

    def query_context(self) -> EvaluationContext:
        """The context queries should run against *right now*.

        Streaming worlds pin the ingestor's current snapshot (readers
        of an already-obtained context keep their version; this returns
        the newest).  Batch worlds return the static context.
        """
        if self.ingestor is not None:
            return self.ingestor.snapshot().context()
        return self.context


def _streaming(name, gis, time_dim, moft_name, bindings, granule) -> ServiceWorld:
    from repro.gis import POLYGON
    from repro.ingest import StoreSpec, StreamingIngestor

    ingestor = StreamingIngestor(
        gis,
        time_dim,
        moft_name=moft_name,
        store_specs=[StoreSpec(granule, "Ln", POLYGON)],
    )
    return ServiceWorld(
        name=name,
        context=ingestor.snapshot().context(),
        bindings=bindings,
        ingestor=ingestor,
    )


def load_world(name: str = "fig1", streaming: bool = False) -> ServiceWorld:
    """Build one of the named worlds (deterministic per name).

    With ``streaming=True`` the MOFT starts empty behind a
    :class:`~repro.ingest.StreamingIngestor` (default config: zero
    allowed lateness) instead of being
    batch-loaded; samples arrive via ``ingest`` jobs or direct
    ``submit`` calls on the ingestor.
    """
    if name == "fig1":
        from repro.synth import figure1_instance

        instance = figure1_instance()
        context = instance.context()
        if streaming:
            return _streaming(
                "fig1", context.gis, context.time, "FMbus",
                dict(FIG1_BINDINGS), "hour",
            )
        return ServiceWorld(
            name="fig1",
            context=context,
            bindings=dict(FIG1_BINDINGS),
        )
    if name == "synth":
        import numpy as np

        from repro.synth import CityConfig, build_city
        from repro.synth.movement import random_waypoint_moft
        from repro.temporal.calendar import hourly
        from repro.temporal.timedim import TimeDimension

        city = build_city(
            CityConfig(cols=6, rows=6), rng=np.random.default_rng(20060109)
        )
        n_instants = 100
        time_dim = TimeDimension.from_mapping(
            hourly(datetime(2006, 1, 9, 0, 0)), range(n_instants)
        )
        if streaming:
            # Hour-of-day granules wrap after 24 hourly instants, so the
            # 100-instant stream maintains day granules instead.
            return _streaming(
                "synth", city.gis, time_dim, "FM", dict(SYNTH_BINDINGS),
                "day",
            )
        moft = random_waypoint_moft(
            city.bounding_box,
            n_objects=100,
            n_instants=n_instants,
            speed=city.config.block_size / 2,
            rng=np.random.default_rng(42),
        )
        return ServiceWorld(
            name="synth",
            context=EvaluationContext(city.gis, time_dim, moft),
            bindings=dict(SYNTH_BINDINGS),
        )
    raise ServiceError(
        f"unknown world {name!r}; expected one of {WORLD_NAMES}"
    )


__all__ = [
    "FIG1_BINDINGS",
    "SYNTH_BINDINGS",
    "WORLD_NAMES",
    "ServiceWorld",
    "load_world",
]
