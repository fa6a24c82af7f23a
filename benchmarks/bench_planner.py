"""E23 — Does the cost-based planner actually pick a fast strategy?

The planner prices serial, grid-indexed, sharded and pre-aggregated
execution in abstract check units and runs the cheapest.  This
benchmark closes the loop with wall clocks: every applicable strategy
is forced and timed on the 10k-sample synthetic city, and the planner's
*auto* choice must land within a lenient factor of the fastest measured
strategy — the cost constants are coarse by design, so the bar is "not
egregiously wrong", not "optimal".  Two scenarios:

* **scan-only** — no store registered; candidates are serial, grid and
  the fan-out over 2 worker processes;
* **with store** — a fresh day-granule store over the answer polygons;
  the pre-agg route joins the candidate set and should win outright.

Every leg asserts exact count equality first: a fast wrong answer
fails before any timing is compared.
"""

from datetime import datetime

import numpy as np
import pytest

from repro.bench import print_table, timed
from repro.parallel import ShardedExecutor
from repro.preagg import PreAggStore
from repro.query.planner import planned_count_objects_through
from repro.query.region import EvaluationContext
from repro.synth.city import CityConfig, build_city
from repro.synth.movement import random_waypoint_moft
from repro.temporal.calendar import hourly
from repro.temporal.timedim import TimeDimension

TARGET = ("Ln", "polygon")
CONSTRAINTS = [("intersects", ("Lr", "polyline"))]

#: The planner's pick must be within this factor of the fastest
#: measured strategy.  Deliberately lenient: the model prices abstract
#: check units, and tiny absolute times make ratios noisy.
TOLERANCE = 3.0


def build_world(with_store: bool):
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
    time_dim = TimeDimension.from_mapping(
        hourly(datetime(2006, 1, 9, 0, 0)), range(100)
    )
    context = EvaluationContext(city.gis, time_dim, moft)
    if with_store:
        elements = city.gis.layer("Ln").elements("polygon")
        store = PreAggStore(
            moft, time_dim, "day", elements, layer="Ln", kind="polygon"
        )
        context.register_preagg(store)
    return context


@pytest.mark.parametrize("with_store", [False, True], ids=["scan-only", "with-store"])
def test_planner_picks_a_fast_strategy(with_store):
    context = build_world(with_store)
    with ShardedExecutor(
        backend="processes", n_shards=2, obs=context.obs
    ) as executor:
        check_planner_pick(context, executor, with_store)


def check_planner_pick(context, executor, with_store):
    auto_count, auto_plan = planned_count_objects_through(
        context, TARGET, CONSTRAINTS, executor=executor
    )
    candidates = [auto_plan.strategy] + [
        name for name, _ in auto_plan.alternatives
    ]

    measured = {}
    counts = {}
    for strategy in candidates:
        seconds, (count, _) = timed(
            lambda s=strategy: planned_count_objects_through(
                context, TARGET, CONSTRAINTS, executor=executor,
                force_strategy=s,
            ),
            repeat=2,
        )
        measured[strategy] = seconds
        counts[strategy] = count

    assert set(counts.values()) == {auto_count}, (
        f"strategies disagree: {counts} vs auto {auto_count}"
    )

    fastest = min(measured, key=lambda name: measured[name])
    chosen = auto_plan.strategy
    ratio = (
        measured[chosen] / measured[fastest] if measured[fastest] else 1.0
    )
    print_table(
        f"planner strategies, 10k samples ({'store' if with_store else 'no store'})",
        ["strategy", "seconds", "est cost", "note"],
        [
            (
                name,
                f"{measured[name]:.4f}",
                f"{dict(auto_plan.alternatives).get(name, auto_plan.est_cost):.0f}",
                ("chosen" if name == chosen else "")
                + (" fastest" if name == fastest else ""),
            )
            for name in candidates
        ],
    )
    assert ratio <= TOLERANCE, (
        f"planner chose {chosen!r} ({measured[chosen]:.4f}s), "
        f"{ratio:.1f}x slower than measured-fastest {fastest!r} "
        f"({measured[fastest]:.4f}s); tolerance is {TOLERANCE}x"
    )
    if with_store:
        assert chosen == "preagg", (
            f"with a fresh aligned store the planner should route through "
            f"it, chose {chosen!r}"
        )
