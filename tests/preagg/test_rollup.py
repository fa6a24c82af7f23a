"""``GranuleStore.rollup``: one group-by for both kinds and both hierarchies.

A rolled-up polygon cell is pinned to the window reads over what it
covers — its child ids and its child granule run — which answer exactly
as the restricted serial scan (``test_store.py``): the object sets and
sample counts must be equal, dwell equal to 1e-9.  A refused roll-up is
pinned for both kinds: a straddling granule or an unmapped gid raises
:class:`RollupError` before a row is read.
"""

from __future__ import annotations

import math
from datetime import datetime

import numpy as np
import pytest

from repro.errors import RollupError
from repro.gis import POLYGON
from repro.poi import PoiVisitStore
from repro.preagg import PreAggStore
from repro.synth import CityConfig, build_city, figure1_instance
from repro.synth.movement import random_waypoint_moft
from repro.temporal.calendar import hourly
from repro.temporal.timedim import TimeDimension


def fig1_store():
    world = figure1_instance(with_pois=True)
    return PreAggStore(
        world.moft, world.time, "hour",
        world.gis.layer("Ln").elements(POLYGON), layer="Ln",
    )


def synth_store(n_instants: int, level: str):
    """The small synthetic world of ``test_store.py`` over ``n_instants``
    hourly instants (24: one day of hour granules)."""
    city = build_city(
        CityConfig(cols=4, rows=4), rng=np.random.default_rng(11)
    )
    moft = random_waypoint_moft(
        city.bounding_box,
        n_objects=40,
        n_instants=n_instants,
        speed=city.config.block_size / 2,
        rng=np.random.default_rng(5),
    )
    time = TimeDimension.from_mapping(
        hourly(datetime(2006, 1, 9, 0, 0)), range(n_instants)
    )
    return PreAggStore(
        moft, time, level, city.gis.layer("Ln").elements(POLYGON)
    )


def one(gids):
    return {gid: "all" for gid in gids}


def halves(gids):
    return {gid: "west" if i < len(gids) // 2 else "east"
            for i, gid in enumerate(gids)}


def thirds(gids):
    return {gid: i % 3 for i, gid in enumerate(gids)}


@pytest.fixture(scope="module")
def stores():
    return {
        "fig1": fig1_store(),
        "synth24": synth_store(24, "hour"),
        "synth50": synth_store(50, "day"),
    }


@pytest.mark.parametrize("world, time_level, space", [
    ("fig1", "day", None),
    ("fig1", "day", one),
    ("fig1", "day", halves),
    ("fig1", None, halves),
    ("synth24", "day", None),
    ("synth24", "day", thirds),
    ("synth50", "month", thirds),
    ("synth50", None, thirds),
])
def test_rollup_equals_window_reads(stores, world, time_level, space):
    store = stores[world]
    mapping = None if space is None else space(store.gids)
    cells = store.rollup(time_level, mapping)
    time_map = np.arange(len(store.partition))
    if time_level is not None:
        _, time_map = store.partition.rollup_codes(store.time, time_level)
    parent_of = mapping or {gid: gid for gid in store.gids}
    table = store._table
    if world != "fig1" and time_level is not None:
        inner = time_map[table.span_a] == time_map[table.span_b]
        assert inner.any(), "no spanning record inside a parent granule"

    got = dict(zip(cells.labels(), zip(
        cells.measures["samples"].tolist(),
        cells.measures["dwell"].tolist(),
        cells.objects("distinct_objects"),
        cells.objects("passing_objects"),
    )))
    assert list(got) == sorted(
        got, key=lambda k: (repr(k[0]), cells.partition.code_of(k[1]))
    )
    for parent in cells.gids:
        ids = [gid for gid in store.gids if parent_of[gid] == parent]
        for code, member in enumerate(cells.partition.members):
            run = np.flatnonzero(time_map == code)
            if not run.size:
                continue
            first, last = int(run[0]), int(run[-1])
            assert run.size == last - first + 1
            passing = store.objects_through(ids, first, last)
            if (parent, member) not in got:
                assert not passing
                continue
            samples, dwell, present, passers = got[parent, member]
            assert set(passers) == passing
            assert set(present) == store.distinct_objects(ids, first, last)
            assert samples == store.sample_count(ids, first, last)
            assert math.isclose(
                dwell, store.dwell_time(ids, first, last),
                rel_tol=1e-9, abs_tol=1e-9,
            )


@pytest.fixture(scope="module")
def fig1_kinds():
    """Both store kinds over Figure 1 at ``hour``: polygons over ``Ln``,
    discs over ``Lp``."""
    world = figure1_instance(with_pois=True)
    return {
        "polygon": PreAggStore(
            world.moft, world.time, "hour",
            world.gis.layer("Ln").elements(POLYGON), layer="Ln",
        ),
        "poi": PoiVisitStore(
            world.moft, world.time, "hour",
            dict(world.gis.layer("Lp").elements("poi")), layer="Lp",
        ),
    }


@pytest.mark.parametrize("kind", ["polygon", "poi"])
@pytest.mark.parametrize("straddle, unmapped", [
    (True, False), (False, True), (True, True),
], ids=["straddle", "unmapped", "both"])
def test_refused_rollup_raises_before_reading_rows(
    fig1_kinds, kind, straddle, unmapped, monkeypatch
):
    """Figure 1's ``timeOfDay`` interleaves 'Other' with 'Morning', so
    no hour partition refines it; a mapping missing the first gid
    leaves a hole in the spatial partition."""
    store = fig1_kinds[kind]
    monkeypatch.setattr(
        store, "_rollup_rows", lambda time_map: pytest.fail("rows read")
    )
    with pytest.raises(RollupError):
        store.rollup(
            "timeOfDay" if straddle else None,
            one(store.gids[1:]) if unmapped else None,
        )


def test_unmapped_gid_without_cells_raises(fig1_kinds):
    """Every gid of the store needs a parent, not only the gids that
    hold cells: Figure 1's north school has no visit."""
    store = fig1_kinds["poi"]
    visited = {gid for gid, _ in store.visit_counts()}
    idle = [gid for gid in store.gids if gid not in visited]
    assert idle
    with pytest.raises(RollupError, match="no spatial parent"):
        store.rollup(space=one(visited))
