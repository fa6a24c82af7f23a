"""``COUNT SAMPLES ... THROUGH RESULT``: the restricted rows of the
objects the through answer holds, summed over the answer's codes.

Figure 1 is checked against a count made by hand from the paper's
table; the city against a row-count oracle (every restricted row whose
object the plain scan matched, counted one by one) under every route a
``THROUGH RESULT`` takes: the grid scan, the store, and a 2-shard
fan-out.
"""

from __future__ import annotations

import pytest

from repro.gis import NODE, POLYGON, POLYLINE
from repro.parallel import ShardedExecutor, ShardedPietQLExecutor
from repro.pietql.executor import LayerBinding, PietQLExecutor
from repro.preagg import PreAggStore
from repro.service import load_world
from repro.synth import figure1_instance

FIG1_BINDINGS = {
    "neighborhoods": LayerBinding("Ln", POLYGON),
    "rivers": LayerBinding("Lr", POLYLINE),
    "schools": LayerBinding("Ls", NODE),
}
RIVER_AND_SCHOOL = (
    "SELECT layer.neighborhoods FROM Fig1 "
    "WHERE intersection(layer.rivers, layer.neighborhoods) "
    "AND contains(layer.neighborhoods, layer.schools) "
    "| COUNT {what} FROM FMbus THROUGH RESULT"
)
MORNING = (
    "SELECT layer.neighborhoods FROM Fig1 "
    "| COUNT {what} FROM FMbus THROUGH RESULT DURING timeOfDay = 'Morning'"
)


def fig1_context(store: bool):
    context = figure1_instance().context()
    if store:
        context.register_preagg(PreAggStore(
            context.moft("FMbus"), context.time, "hour",
            context.gis.layer("Ln").elements(POLYGON), layer="Ln",
            kind=POLYGON,
        ))
    return context


FIG1_EXECUTORS = {
    "grid": lambda: PietQLExecutor(fig1_context(False), FIG1_BINDINGS),
    "preagg": lambda: PietQLExecutor(fig1_context(True), FIG1_BINDINGS),
    "sharded": lambda: ShardedPietQLExecutor(
        fig1_context(False), FIG1_BINDINGS,
        sharded=ShardedExecutor("serial", n_shards=2),
    ),
}


class TestFigure1:
    """Table 1 of the paper, by hand: O1 has 4 samples (t = 1..4), O2 3
    (t = 2..4), O3 1 (t = 5), O4 1 (t = 6), O5 1 (t = 3), O6 2 (t = 2,
    3)."""

    @pytest.mark.parametrize("route", FIG1_EXECUTORS)
    @pytest.mark.parametrize(
        "query, objects, samples",
        [
            # O4 passes through neither neighborhood: 4 + 3 + 1 + 1 + 2.
            (RIVER_AND_SCHOOL, {"O1", "O2", "O3", "O5", "O6"}, 11),
            # Morning is t in {2, 3, 4}: O1 3, O2 3, O5 1, O6 2; O3 and
            # O4 are sampled outside it.
            (MORNING, {"O1", "O2", "O5", "O6"}, 9),
        ],
        ids=["river-and-school", "morning"],
    )
    def test_hand_count(self, route, query, objects, samples):
        executor = FIG1_EXECUTORS[route]()
        counted = executor.execute(query.format(what="SAMPLES"))
        assert counted.matched_objects == objects
        assert counted.count == samples
        assert executor.execute(query.format(what="OBJECTS")).count == len(
            objects
        )


@pytest.fixture(scope="module")
def city():
    return load_world("synth")


def city_query(context, what: str) -> str:
    day = context.time.granules("day").members[1]
    return (
        "SELECT layer.neighborhoods FROM City "
        "WHERE contains(layer.neighborhoods, layer.schools) "
        "AND contains(layer.neighborhoods, layer.stores) "
        f"| COUNT {what} FROM FM THROUGH RESULT DURING day = '{day}'"
    )


def row_count(context, matched) -> int:
    """The oracle: rows of day 1 whose object is in ``matched``, one by
    one."""
    partition = context.time.granules("day")
    day = set(partition.instants[partition.codes == 1].tolist())
    return sum(
        1 for oid, t, _, _ in context.moft("FM").tuples()
        if oid in matched and t in day
    )


class TestCity:
    def test_every_route_counts_the_oracles_rows(self, city):
        context, bindings = city.context, city.bindings
        plain = PietQLExecutor(context, bindings)
        matched = plain.execute(city_query(context, "OBJECTS")).matched_objects
        assert 0 < len(matched) < len(context.moft("FM").oids)
        want = row_count(context, frozenset(matched))

        counted = {"grid": plain.execute(city_query(context, "SAMPLES"))}
        with ShardedExecutor("serial", n_shards=2) as executor:
            fanned = ShardedPietQLExecutor(context, bindings, sharded=executor)
            counted["sharded"] = fanned.execute(city_query(context, "SAMPLES"))
            assert executor.obs.count("shard_count") == 2
        stored = load_world("synth").context
        stored.register_preagg(PreAggStore(
            stored.moft("FM"), stored.time, "day",
            stored.gis.layer("Ln").elements(POLYGON), layer="Ln",
            kind=POLYGON,
        ))
        counted["preagg"] = PietQLExecutor(stored, bindings).execute(
            city_query(stored, "SAMPLES")
        )
        assert stored.obs.count("preagg_hits") == 1
        for route, result in counted.items():
            assert result.matched_objects == matched, route
            assert result.count == want, route
