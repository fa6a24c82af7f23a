"""A warm store-served read costs the cells it reads, not the table.

Once a fresh :class:`~repro.preagg.PreAggStore` and
:class:`~repro.poi.PoiVisitStore` are registered and one query of each
kind has run, a repeat of the query makes no pass over the fact table or
the Time dimension: no column read (``MOFT.as_arrays`` /
``MOFT.oid_column``), no object set (``MOFT.objects``) and no per-instant
rollup (``TimeDimension.try_rollup``).  The table summaries (``bbox``,
``time_range``), the per-level instant index and the store's own
partition answer everything the read needs besides its cells.  Each
answer also equals the plain scan, so the spy pins speed without
trading exactness.
"""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from repro.gis import NODE, POLYGON
from repro.mo import MOFT
from repro.pietql import PietQLExecutor
from repro.poi import PoiVisitStore
from repro.preagg import PreAggStore
from repro.query.aggregate import total_dwell_time
from repro.query.evaluator import count_objects_through
from repro.query.planner import (
    execute_poi_plan,
    plan_poi_aggregate,
    planned_count_objects_through,
)
from repro.query.poi import poi_topk
from repro.query.region import EvaluationContext
from repro.service.worlds import SYNTH_BINDINGS
from repro.synth import (
    CityConfig,
    build_city,
    install_city_pois,
    stop_biased_moft,
)
from repro.synth.movement import random_waypoint_moft
from repro.temporal.calendar import hourly
from repro.temporal.timedim import TimeDimension

N_INSTANTS = 48  # two day granules
TARGET = ("Ln", POLYGON)
CONSTRAINTS = [("contains", ("Ls", NODE))]
DAY2 = (24.0, 47.0)
SPIED = (
    (MOFT, "as_arrays"),
    (MOFT, "oid_column"),
    (MOFT, "objects"),
    (TimeDimension, "try_rollup"),
)


def make_world():
    """A 6x6 city, a two-day Time dimension, a slow walk ``FM`` (about
    half its objects pass an answer polygon on day 2) and a stop-biased
    ``FMpoi``; the plain context and one with both stores."""
    city = build_city(CityConfig(cols=6, rows=6), rng=np.random.default_rng(5))
    pois = install_city_pois(city)
    time_dim = TimeDimension.from_mapping(
        hourly(datetime(2006, 1, 9, 0, 0)), range(N_INSTANTS)
    )
    tables = {
        "FM": random_waypoint_moft(
            city.bounding_box, 60, N_INSTANTS,
            speed=city.config.block_size / 10, rng=np.random.default_rng(9),
        ),
        "FMpoi": stop_biased_moft(pois, 20, N_INSTANTS, name="FMpoi"),
    }
    plain = EvaluationContext(city.gis, time_dim, dict(tables))
    warm = EvaluationContext(city.gis, time_dim, dict(tables))
    warm.register_preagg(PreAggStore(
        tables["FM"], time_dim, "day", city.gis.layer("Ln").elements(POLYGON),
        layer="Ln", kind=POLYGON,
    ))
    warm.register_preagg(PoiVisitStore(
        tables["FMpoi"], time_dim, "day", pois, layer="Lp",
    ))
    return plain, warm


@pytest.fixture(scope="module")
def world():
    return make_world()


def pietql_text(context: EvaluationContext) -> str:
    day2 = context.time.granules("day").members[1]
    return (
        "SELECT layer.neighborhoods FROM City "
        "WHERE contains(layer.neighborhoods, layer.schools) "
        f"| COUNT OBJECTS FROM FM THROUGH RESULT DURING day = '{day2}'"
    )


def through(context, use_store=True):
    if not use_store:
        return count_objects_through(
            context, TARGET, CONSTRAINTS, moft_name="FM", use_preagg=False
        )
    count, plan = planned_count_objects_through(
        context, TARGET, CONSTRAINTS, moft_name="FM"
    )
    assert plan.strategy == "preagg"
    return count


def through_day2(context, use_store=True):
    if not use_store:
        return count_objects_through(
            context, TARGET, CONSTRAINTS, moft_name="FM", window=DAY2,
            use_preagg=False,
        )
    count, plan = planned_count_objects_through(
        context, TARGET, CONSTRAINTS, moft_name="FM", window=DAY2
    )
    assert plan.strategy == "preagg"
    return count


def dwell(context, use_store=True):
    return total_dwell_time(
        context, TARGET, CONSTRAINTS, "FM", window=DAY2,
        use_preagg=use_store,
    )


def pietql(context, use_store=True):
    hits = context.obs.count("preagg_hits")
    result = PietQLExecutor(context, SYNTH_BINDINGS).execute(
        pietql_text(context)
    )
    assert (context.obs.count("preagg_hits") > hits) == use_store
    return result.count, result.matched_objects


def topk(context, use_store=True):
    if not use_store:
        return poi_topk(context, "Lp", "day", 3, moft_name="FMpoi",
                        strategy="serial")
    options = dict(moft_name="FMpoi", measure="topk", k=3)
    plan = plan_poi_aggregate(context, "Lp", "day", **options)
    assert plan.strategy == "preagg"
    return execute_poi_plan(plan, context, "Lp", "day", **options)


READS = {
    "through": through,
    "through_day2": through_day2,
    "dwell": dwell,
    "pietql": pietql,
    "topk": topk,
}


@pytest.fixture
def spy(monkeypatch):
    """Count calls of every spied method (each still runs)."""
    calls = {}

    def wrap(owner, name):
        original = getattr(owner, name)

        def spied(*args, **kwargs):
            calls[f"{owner.__name__}.{name}"] = (
                calls.get(f"{owner.__name__}.{name}", 0) + 1
            )
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spied)

    for owner, name in SPIED:
        wrap(owner, name)
    return calls


@pytest.mark.parametrize("kind", sorted(READS))
def test_warm_read_touches_no_row_or_instant(world, spy, kind):
    plain, warm = world
    read = READS[kind]
    first = read(warm)
    spy.clear()
    again = read(warm)
    assert spy == {}, f"{kind}: a warm read made a per-query pass: {spy}"
    assert again == first


@pytest.mark.parametrize("kind", sorted(READS))
def test_warm_read_equals_the_scan(world, kind):
    plain, warm = world
    read = READS[kind]
    expected = read(plain, use_store=False)
    if kind == "dwell":
        assert read(warm) == pytest.approx(expected, rel=1e-9)
    else:
        assert read(warm) == expected


#: Window ends on a half-instant grid from before the first instant to
#: past the last — aligned and misaligned at either end, on, inside and
#: beyond the store's coverage edges — drawn near a day boundary half
#: the time.
EDGES = [
    edge + step
    for edge in (0.0, 23.0, 24.0, 47.0)
    for step in (-1.0, -0.5, 0.0, 0.5, 1.0)
]
ENDS = st.one_of(
    st.sampled_from(EDGES), st.integers(-6, 100).map(lambda half: half / 2)
)


@given(a=ENDS, b=ENDS)
@example(a=0.0, b=24.0)  # the sliver is the window's last instant
@example(a=23.0, b=47.0)  # ... its first instant
@example(a=-3.0, b=50.0)  # beyond both coverage edges: aligned
@example(a=24.0, b=47.0)  # one whole day
def test_windowed_reads_equal_the_scan(world, a, b):
    """The hybrid through-count and ``window_dwell`` over any window —
    the sliver decided on the partition, the column read only when the
    window holds an instant outside the covered run — equal the plain
    scan."""
    plain, warm = world
    window = (min(a, b), max(a, b))
    assume(window[1] >= 0 and window[0] <= N_INSTANTS - 1)
    store = warm.preagg_for(warm.moft("FM"), *TARGET, set())
    served = store.covered_run(*window) is not None
    hits = warm.obs.count("preagg_hits")
    for context, use_store in ((plain, False), (warm, True)):
        args = (context, TARGET, CONSTRAINTS, "FM")
        count = count_objects_through(
            *args, window=window, use_preagg=use_store
        )
        seconds = total_dwell_time(*args, window=window, use_preagg=use_store)
        if not use_store:
            expected = count, seconds
    assert count == expected[0]
    assert seconds == pytest.approx(expected[1], rel=1e-9, abs=1e-9)
    assert warm.obs.count("preagg_hits") - hits == (2 if served else 0)


def test_warm_misaligned_dwell_computes_its_sliver_once(monkeypatch):
    """The dwell read of a misaligned window takes the sliver rows its
    prepared leaf holds: the mask is built by the cold call alone, and
    every warm answer is bit-equal to the cold one."""
    plain, warm = make_world()
    calls = []
    original = PreAggStore._sliver_scan_mask

    def spied(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(PreAggStore, "_sliver_scan_mask", spied)
    window = (10, 47)
    args = (warm, TARGET, CONSTRAINTS, "FM")
    cold = total_dwell_time(*args, window=window)
    warm_answers = [total_dwell_time(*args, window=window) for _ in range(3)]
    assert warm.obs.count("preagg_hits") == 4
    assert len(calls) == 1
    assert all(
        np.float64(answer).tobytes() == np.float64(cold).tobytes()
        for answer in warm_answers
    )
    assert cold == pytest.approx(
        total_dwell_time(plain, TARGET, CONSTRAINTS, "FM", window=window,
                         use_preagg=False),
        rel=1e-9,
    )
