"""Shared fixtures for the query-service suite.

The worlds are the same two every differential suite uses (re-exported
from the parallel suite's conftest, wrapped as
:class:`~repro.service.worlds.ServiceWorld`), plus a deterministic
:class:`FakeClock` so lease expiry is a function call, not a sleep, and
a ``make_queue`` factory parametrized over the queue's two kinds of
path, so every state-machine test runs against a ``":memory:"`` queue
(what ``QueryService()`` builds) *and* a file (what ``serve`` /
``submit`` use).
"""

from __future__ import annotations

import pytest

from repro.gis import NODE, POLYGON, POLYLINE
from repro.obs import PipelineStats
from repro.service import QuerySpec, SQLiteJobQueue, ServiceWorld

from tests.parallel.conftest import (  # noqa: F401  (re-exported fixtures)
    FIG1_BINDINGS,
    SYNTH_BINDINGS,
    fig1,
    fig1_context,
    synth_world,
)

FIG1_TARGET = ("Ln", POLYGON)
FIG1_CONSTRAINTS = [
    ("intersects", ("Lr", POLYLINE)),
    ("contains", ("Ls", NODE)),
]
SYNTH_TARGET = ("Ln", POLYGON)
SYNTH_CONSTRAINTS = [("intersects", ("Lr", POLYLINE))]

#: The paper's Remark 1 count query, as a service spec.
FIG1_SPEC = QuerySpec.through(
    FIG1_TARGET, FIG1_CONSTRAINTS, moft_name="FMbus"
)


class FakeClock:
    """A manually-advanced clock injectable into queues."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = float(now)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += float(seconds)
        return self.now


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture(params=["memory", "sqlite"])
def make_queue(request, tmp_path):
    """Factory building a fresh queue on the parametrized kind of path."""
    opened = []

    def factory(clock=None, obs=None):
        kwargs = {}
        if clock is not None:
            kwargs["clock"] = clock
        if obs is not None:
            kwargs["obs"] = obs
        path = (
            ":memory:"
            if request.param == "memory"
            else str(tmp_path / f"queue{len(opened)}.db")
        )
        queue = SQLiteJobQueue(path, **kwargs)
        opened.append(queue)
        return queue

    yield factory
    for queue in opened:
        queue.close()


@pytest.fixture(scope="session")
def fig1_service_world(fig1_context) -> ServiceWorld:
    """The Figure 1 instance wrapped for the service layer."""
    return ServiceWorld(
        name="fig1", context=fig1_context, bindings=dict(FIG1_BINDINGS)
    )


@pytest.fixture(scope="session")
def synth_service_world(synth_world) -> ServiceWorld:
    """The 10k-sample synthetic city wrapped for the service layer."""
    return ServiceWorld(
        name="synth",
        context=synth_world.context,
        bindings=dict(SYNTH_BINDINGS),
    )


@pytest.fixture
def obs() -> PipelineStats:
    return PipelineStats()
