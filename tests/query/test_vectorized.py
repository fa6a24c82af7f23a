"""Columnar containment, and the region lowering against the solver.

``SpatioTemporalRegion.evaluate`` evaluates the sample-semantics
conjunction as columns (``repro.query.region._lower``) and every other
formula with the solver.  :func:`lowered_equals_solver` is the one
differential: ``evaluate`` returns the solver's rows, equal in value, type
and order, and it reports the path ``evaluate`` counted.  Its inputs are
Figure 1 (Remark 1 and the Section 4 queries), a synthetic city, the
cases of the columnar path's regressions (fed from
tests/query/test_regressions.py) and hypothesis-drawn conjunctions
inside the grammar.  The path record asserts that both paths
ran and that every case of the grammar was lowered, so a lowering that
always declines fails by the record alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import SCALES, build_world
from repro.errors import InstanceError, QueryError, ReproError
from repro.geometry import BoundingBox, Point, Polygon
from repro.geometry.kernels import kernel_backend
from repro.gis import (
    ALL,
    POINT,
    POLYGON,
    AttributePlacement,
    GISDimensionInstance,
    GISDimensionSchema,
    LayerHierarchy,
)
from repro.mo import MOFT
from repro.query import EvaluationContext, RegionBuilder
from repro.query import region as region_module
from repro.query.ast import (
    Alpha,
    And,
    Compare,
    Const,
    MemberValue,
    Moft,
    Or,
    PointIn,
    TimeRollup,
    TimeRollupCompare,
    Var,
)
from repro.query.region import SpatioTemporalRegion
from repro.query.vectorized import polygon_contains_batch
from repro.synth import LOW_INCOME_THRESHOLD, figure1_instance
from repro.synth.movement import random_waypoint_moft
from repro.temporal import TimeDimension
from tests.query.test_section4_examples import (
    completely_through_region,
    street_region,
    street_world,
    tram_waiting_region,
    tram_world,
    two_city_world,
)

OID, T, X, Y, G, M = (Var(n) for n in ("oid", "t", "x", "y", "g", "m"))

#: One ulp above a registered instant: matches no Time rollup.
ULP_OFF = float(np.nextafter(2.0, np.inf))


def lowered_equals_solver(region, ctx):
    """Assert ``evaluate`` equals the solver's rows (value, type, order)
    and return the path it counted: ``"lowered"`` or ``"solved"``."""
    lowered = ctx.obs.count("regions_lowered")
    solved = ctx.obs.count("regions_solved")
    rows = region.evaluate(ctx)
    expected = [
        dict(zip(region.output_variables, row))
        for row in sorted(region_module._solved(region, ctx), key=repr)
    ]
    assert rows == expected
    assert repr(rows) == repr(expected)
    moved = (
        ctx.obs.count("regions_lowered") - lowered,
        ctx.obs.count("regions_solved") - solved,
    )
    assert moved in ((1, 0), (0, 1))
    return "lowered" if moved == (1, 0) else "solved"


@pytest.fixture(scope="module")
def world():
    return figure1_instance()


# ---------------------------------------------------------------------------
# The cases: name -> () -> (region, context, expected rows or None)
# ---------------------------------------------------------------------------


def _fig1(builder):
    fig1 = figure1_instance()
    return builder.build(fig1.gis), fig1.context(), None


def _remark1():
    return _fig1(
        RegionBuilder()
        .from_moft("FMbus")
        .during("timeOfDay", "Morning")
        .in_attribute_polygon(
            "neighborhood", value_filter=("income", "<", LOW_INCOME_THRESHOLD)
        )
    )


def _q1():
    return _fig1(
        RegionBuilder()
        .from_moft("FMbus")
        .during("timeOfDay", "Morning")
        .during("typeOfDay", "Weekday")
        .in_attribute_polygon("neighborhood", member="zuid")
    )


def _q2():
    _, ctx = street_world()
    return street_region(), ctx, None


def _q3():
    return completely_through_region(), two_city_world(), None


def _q4():
    return _fig1(
        RegionBuilder()
        .from_moft("FMbus", at_instant=3)
        .in_attribute_polygon("neighborhood", member="zuid")
    )


def _q6():
    return _fig1(
        RegionBuilder()
        .from_moft("FMbus")
        .during("timeOfDay", "Morning")
        .near_attribute_node("school", 3.0)
    )


def _q7():
    ctx = tram_world()
    return tram_waiting_region(ctx), ctx, None


def _morning_from_hour_3():
    """Once the push-down's intersected instant set: Morning and hour
    >= 3 keep instants 3 and 4."""
    fig1 = figure1_instance()
    region = (
        RegionBuilder()
        .from_moft("FMbus")
        .during("timeOfDay", "Morning")
        .where_time("hour", ">=", 3)
        .build(fig1.gis)
    )
    kept = {(oid, t) for oid, t, _, _ in fig1.moft.tuples() if t in (3.0, 4.0)}
    expected = [{"oid": oid, "t": t} for oid, t in sorted(kept, key=repr)]
    return region, fig1.context(), expected


def _gid_and_member_outputs():
    fig1 = figure1_instance()
    region = SpatioTemporalRegion(
        ("m", "oid", "g", "t"),
        And(
            Compare(MemberValue("neighborhood", M, "income"), "<", Const(2600)),
            Alpha("neighborhood", M, G),
            TimeRollupCompare(T, "hour", "<=", 3),
            PointIn(X, Y, "Ln", POLYGON, G),
            Moft(OID, T, X, Y, "FMbus"),
        ),
    )
    return region, fig1.context(), None


def _where_member():
    return _fig1(
        RegionBuilder()
        .from_moft("FMbus")
        .where_member("neighborhood", ["zuid", "noord"])
        .output("oid", "t", "x", "y")
    )


def _or_of_instants():
    fig1 = figure1_instance()
    region = SpatioTemporalRegion(
        ("oid", "t"),
        And(
            Moft(OID, T, X, Y, "FMbus"),
            Or(
                TimeRollup(T, "hour", Const(1)),
                TimeRollup(T, "hour", Const(5)),
            ),
        ),
    )
    return region, fig1.context(), [
        {"oid": "O1", "t": 1.0}, {"oid": "O3", "t": 5.0},
    ]


def _city(outputs, during=("timeOfDay", "Morning")):
    """The Remark 1 shape on a 6x6 city of 1 440 samples (all of them
    are enough for the pass's decided cells)."""
    city, moft, time_dim = build_world(SCALES[1])
    region = SpatioTemporalRegion(
        outputs,
        And(
            Moft(OID, T, X, Y),
            TimeRollup(T, during[0], Const(during[1])),
            PointIn(X, Y, "Ln", POLYGON, G),
            Alpha("neighborhood", M, G),
            Compare(MemberValue("neighborhood", M, "income"), "<", Const(2000)),
        ),
    )
    return region, EvaluationContext(city.gis, time_dim, moft), None


def unit_world(samples):
    """One unit square ``u`` on layer ``Ln``; hourly instants 1 and 2."""
    schema = GISDimensionSchema(
        [LayerHierarchy("Ln", [(POINT, POLYGON), (POLYGON, ALL)])],
        [AttributePlacement("area", POLYGON, "Ln")],
    )
    gis = GISDimensionInstance(schema)
    gis.add_geometry("Ln", POLYGON, "pg_u", Polygon.rectangle(0, 0, 1, 1))
    gis.set_alpha("area", "u", "pg_u")
    moft = MOFT("FM")
    for sample in samples:
        moft.add(*sample)
    time = TimeDimension.from_explicit_rollups(
        [("timeId", t, "hour", t) for t in (1, 2)]
    )
    return gis, EvaluationContext(gis, time, moft)


def _unit_region(gis, *time_atoms):
    builder = RegionBuilder().from_moft("FM")
    for level, member in time_atoms:
        builder.during(level, member)
    return builder.in_attribute_polygon("area").build(gis)


def boundary_sample():
    """A sample on an edge and one on a corner belong to the closed
    square; the oid column recovers every hit."""
    gis, ctx = unit_world([
        ("O1", 1, 0.5, 0.5), ("O1", 2, 5.0, 5.0), ("O2", 1, 0.25, 0.25),
        ("O3", 1, 9.0, 9.0), ("O4", 1, 1.0, 0.5), ("O5", 2, 0.0, 0.0),
    ])
    return _unit_region(gis), ctx, [
        {"oid": oid, "t": t}
        for oid, t in (("O1", 1.0), ("O2", 1.0), ("O4", 1.0), ("O5", 2.0))
    ]


def instant_filter():
    gis, ctx = unit_world([("O1", 1, 0.5, 0.5), ("O1", 2, 0.5, 0.5)])
    return _unit_region(gis, ("hour", 2)), ctx, [{"oid": "O1", "t": 2.0}]


def tuple_oids():
    gis, ctx = unit_world([(("fleet", 7), 1, 0.5, 0.5)])
    return _unit_region(gis), ctx, [{"oid": ("fleet", 7), "t": 1.0}]


def _ulp_off_instant():
    """An instant one ulp off a registered one matches no rollup, so only
    the sample at the registered instant is in the region."""
    gis, ctx = unit_world([("O1", 2, 0.5, 0.5), ("O2", ULP_OFF, 0.5, 0.5)])
    return _unit_region(gis, ("hour", 2)), ctx, [{"oid": "O1", "t": 2.0}]


#: The differential's inputs, by the path each must take (the oid-recovery
#: cases above feed it from tests/query/test_regressions.py).
LOWERED = {
    "remark1": _remark1,
    "q1_zuid_weekday_morning": _q1,
    "morning_from_hour_3": _morning_from_hour_3,
    "gid_and_member_outputs": _gid_and_member_outputs,
    "where_member": _where_member,
    "city_remark1_shape": lambda: _city(("oid", "t")),
    "city_per_neighborhood": lambda: _city(("m", "oid", "t", "g")),
    "ulp_off_instant": _ulp_off_instant,
}
SOLVED = {
    "q2_street_polylines": _q2,
    "q3_completely_through": _q3,
    "q4_snapshot_at_a_constant_instant": _q4,
    "q6_near_schools_sampled": _q6,
    "q7_tram_stop": _q7,
    "or_of_instants": _or_of_instants,
}
CASES = {**LOWERED, **SOLVED}


@pytest.mark.parametrize("case", list(CASES))
def test_lowered_equals_solver(case):
    region, ctx, expected = CASES[case]()
    path = lowered_equals_solver(region, ctx)
    assert path == ("lowered" if case in LOWERED else "solved")
    if expected is not None:
        assert region.evaluate(ctx) == expected


def test_path_record():
    """Both counters moved over the cases, and Remark 1 and every
    Section 4 query inside the grammar were lowered (Q2 is polylines, Q3
    holds a negation, Q4 a constant instant, Q6 and Q7 a distance: the
    solver's)."""
    record = {}
    for name, make in CASES.items():
        region, ctx, _ = make()
        record[name] = lowered_equals_solver(region, ctx)
    assert set(record.values()) == {"lowered", "solved"}
    assert record["remark1"] == record["q1_zuid_weekday_morning"] == "lowered"
    assert [n for n, p in record.items() if p == "lowered"] == list(LOWERED)


def test_remark1_is_four_thirds_on_the_lowered_path(world):
    ctx = world.context()
    query = (
        RegionBuilder()
        .from_moft("FMbus")
        .during("timeOfDay", "Morning")
        .in_attribute_polygon(
            "neighborhood", value_filter=("income", "<", LOW_INCOME_THRESHOLD)
        )
        .count_query(per_span=("timeOfDay", "Morning"), gis=world.gis)
    )
    assert query.run_scalar(ctx) == pytest.approx(4 / 3)
    assert ctx.obs.count("regions_lowered") == 1
    assert ctx.obs.count("regions_solved") == 0


def test_city_containment_reads_decided_cells():
    """All 1 440 city samples take one containment call: the pass's
    decided cells answer some of them (none under ``scalar``)."""
    region, ctx, _ = _city(("oid", "t"), during=("typeOfDay", "Weekday"))
    assert lowered_equals_solver(region, ctx) == "lowered"
    decided = ctx.obs.count("cell_decided_points")
    assert decided == 0 if kernel_backend() == "scalar" else decided > 0


class TestBatchContainment:
    def test_matches_scalar_on_square(self):
        square = Polygon.rectangle(0, 0, 10, 10)
        xs = np.array([5.0, -1.0, 10.0, 0.0, 15.0])
        ys = np.array([5.0, 5.0, 5.0, 0.0, 15.0])
        batch = polygon_contains_batch(square, xs, ys)
        for i in range(len(xs)):
            assert batch[i] == square.contains_point(Point(xs[i], ys[i]))

    def test_boundary_points_inside(self):
        square = Polygon.rectangle(0, 0, 10, 10)
        xs = np.array([0.0, 10.0, 5.0])
        ys = np.array([5.0, 10.0, 0.0])
        assert polygon_contains_batch(square, xs, ys).all()

    def test_hole_excluded(self):
        poly = Polygon(
            [Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)],
            holes=[[Point(4, 4), Point(6, 4), Point(6, 6), Point(4, 6)]],
        )
        xs = np.array([5.0, 2.0, 4.0])
        ys = np.array([5.0, 2.0, 5.0])
        result = polygon_contains_batch(poly, xs, ys)
        assert list(result) == [False, True, True]  # hole boundary counts

    @settings(max_examples=30)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-15, max_value=15),
                st.floats(min_value=-15, max_value=15),
            ),
            min_size=1,
            max_size=50,
        ),
        st.integers(min_value=3, max_value=9),
    )
    def test_batch_equals_scalar_property(self, coords, sides):
        polygon = Polygon.regular(Point(0, 0), 8.0, sides)
        xs = np.array([c[0] for c in coords])
        ys = np.array([c[1] for c in coords])
        batch = polygon_contains_batch(polygon, xs, ys)
        for i, (px, py) in enumerate(coords):
            assert batch[i] == polygon.contains_point(Point(px, py))


class TestSamplesInPolygons:
    """The Type-4 region of samples in polygons, evaluated lowered."""

    def test_running_query_equivalence(self):
        region, ctx, _ = _remark1()
        assert lowered_equals_solver(region, ctx) == "lowered"
        assert region.evaluate_tuples(ctx) == {
            ("O1", 2.0), ("O1", 3.0), ("O1", 4.0), ("O2", 3.0),
        }

    def test_no_time_filter(self, world):
        ctx = world.context()
        region = (
            RegionBuilder()
            .from_moft("FMbus")
            .in_attribute_polygon(
                "neighborhood",
                value_filter=("income", "<", LOW_INCOME_THRESHOLD),
            )
            .build(world.gis)
        )
        assert lowered_equals_solver(region, ctx) == "lowered"
        assert ("O1", 1.0) in region.evaluate_tuples(ctx)

    def test_empty_inputs(self, world):
        """An empty table, an answer without geometry ids and a Time atom
        no instant passes all give the empty region, lowered."""
        empty = EvaluationContext(world.gis, world.time, {"FMbus": MOFT("FMbus")})
        no_ids = (
            RegionBuilder()
            .from_moft("FMbus")
            .in_attribute_polygon("neighborhood", value_filter=("income", "<", 0))
        )
        no_instants = RegionBuilder().from_moft("FMbus").during("hour", 99)
        for builder, ctx in (
            (no_ids, empty), (no_ids, world.context()),
            (no_instants, world.context()),
        ):
            region = builder.build(world.gis)
            assert lowered_equals_solver(region, ctx) == "lowered"
            assert region.evaluate(ctx) == []

    def test_random_world_equivalence(self, world):
        """Lowered equals the solver and per-sample scalar checks on
        random traffic over Figure 1's neighborhoods."""
        moft = random_waypoint_moft(
            BoundingBox(0, 0, 20, 20), n_objects=15, n_instants=10, seed=3
        )
        ctx = EvaluationContext(world.gis, world.time, {"FM": moft})
        region = (
            RegionBuilder()
            .from_moft("FM")
            .where_member("neighborhood", ["zuid", "noord"])
            .build(world.gis)
        )
        assert lowered_equals_solver(region, ctx) == "lowered"
        polygons = [
            world.gis.layer("Ln").element(
                "polygon", world.gis.alpha("neighborhood", m)
            )
            for m in ("zuid", "noord")
        ]
        slow = {
            (oid, t)
            for oid, t, x, y in moft.tuples()
            if any(p.contains_point(Point(x, y)) for p in polygons)
        }
        assert region.evaluate_tuples(ctx) == slow


# ---------------------------------------------------------------------------
# Hypothesis: conjunctions inside the grammar
# ---------------------------------------------------------------------------

#: 3x3 cells of side 10, a polygon ``big`` over the middle (so points lie
#: in two polygons) and a second member ``alias`` of cell 11's polygon.
MEMBERS = [f"n{i}{j}" for i in range(3) for j in range(3)] + ["big", "alias"]
TIME_ATOMS = [
    TimeRollup(T, "timeOfDay", Const("Morning")),
    TimeRollup(T, "timeOfDay", Const("Other")),
    TimeRollupCompare(T, "hour", ">=", 2),
    TimeRollupCompare(T, "hour", "<", 4),
    TimeRollupCompare(T, "hour", "!=", 3),
]


def drawn_world(incomes, samples):
    schema = GISDimensionSchema(
        [LayerHierarchy("Ln", [(POINT, POLYGON), (POLYGON, ALL)])],
        [AttributePlacement("nb", POLYGON, "Ln")],
    )
    gis = GISDimensionInstance(schema)
    for index, name in enumerate(MEMBERS[:9]):
        i, j = int(name[1]), int(name[2])
        gis.add_geometry(
            "Ln", POLYGON, f"pg_{name}",
            Polygon.rectangle(i * 10, j * 10, (i + 1) * 10, (j + 1) * 10),
        )
        gis.set_alpha("nb", name, f"pg_{name}")
    gis.add_geometry("Ln", POLYGON, "pg_big", Polygon.rectangle(5, 5, 25, 25))
    gis.set_alpha("nb", "big", "pg_big")
    gis.set_alpha("nb", "alias", "pg_n11")
    for name, income in zip(MEMBERS, incomes):
        gis.set_member_value("nb", name, "income", income)
    moft = MOFT("FM")
    for oid, t, x, y in samples:
        moft.add(f"o{oid}", t, x, y)
    rollups = []
    for t in range(6):
        rollups.append(("timeId", t, "hour", t))
        rollups.append(
            ("hour", t, "timeOfDay", "Morning" if t in (2, 3, 4) else "Other")
        )
    return EvaluationContext(gis, TimeDimension.from_explicit_rollups(rollups), moft)


coordinate = st.one_of(
    st.floats(min_value=0, max_value=30),
    st.sampled_from([0.0, 5.0, 10.0, 20.0, 25.0, 30.0]),
)
samples_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.sampled_from([0, 1, 2, 3, 4, 5, 6, ULP_OFF]),
        coordinate,
        coordinate,
    ),
    max_size=25,
    unique_by=lambda s: (s[0], s[1]),
)


@st.composite
def conjunctions(draw):
    """A region in the grammar: shuffled conjuncts, a constant or
    variable member with a value filter or a member list, Time rollups
    and comparisons, and an output subset in any order."""
    atoms = [Moft(OID, T, X, Y)]
    atoms += draw(st.lists(st.sampled_from(TIME_ATOMS), unique=True, max_size=3))
    available = ["oid", "t", "x", "y"]
    spatial = draw(st.sampled_from(["none", "var", "const"]))
    if spatial != "none":
        member = M if spatial == "var" else Const(draw(st.sampled_from(MEMBERS)))
        atoms += [PointIn(X, Y, "Ln", POLYGON, G), Alpha("nb", member, G)]
        available += ["g", "m"] if spatial == "var" else ["g"]
        conditions = ["none", "filter"] + (["members"] if spatial == "var" else [])
        condition = draw(st.sampled_from(conditions))
        if condition == "filter":
            op = draw(st.sampled_from(["<", ">=", "=", "!="]))
            value = draw(st.integers(min_value=500, max_value=3000))
            atoms.append(
                Compare(MemberValue("nb", member, "income"), op, Const(value))
            )
        elif condition == "members":
            chosen = draw(st.lists(st.sampled_from(MEMBERS), min_size=1, unique=True))
            atoms.append(Or(*[Compare(M, "=", Const(m)) for m in chosen]))
    outputs = draw(st.lists(st.sampled_from(available), min_size=1, unique=True))
    return SpatioTemporalRegion(tuple(outputs), And(*draw(st.permutations(atoms))))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(min_value=500, max_value=3000), min_size=11, max_size=11),
    samples_strategy,
    conjunctions(),
)
def test_drawn_conjunctions_lower_to_the_solvers_rows(incomes, samples, region):
    ctx = drawn_world(incomes, samples)
    assert lowered_equals_solver(region, ctx) == "lowered"


# ---------------------------------------------------------------------------
# Errors: the solver's, raised where it raised them
# ---------------------------------------------------------------------------


def _bad_operator(gis):
    return RegionBuilder().from_moft("FM").where_time("hour", "~", 1).build(gis)


def _missing_field(gis):
    return (
        RegionBuilder()
        .from_moft("FM")
        .in_attribute_polygon("area", value_filter=("rent", "<", 1))
        .build(gis)
    )


def _unknown_layer(gis):
    return SpatioTemporalRegion(
        ("oid", "t"),
        And(
            Moft(OID, T, X, Y),
            PointIn(X, Y, "Lzz", POLYGON, G),
            Alpha("area", M, G),
        ),
    )


@pytest.mark.parametrize(
    "make, error, unreached",
    [
        (_bad_operator, QueryError, [("O1", 7, 0.5, 0.5)]),
        (_missing_field, InstanceError, [("O1", 1, 5.0, 5.0)]),
        (_unknown_layer, ReproError, []),
    ],
    ids=["bad_operator", "missing_field", "unknown_layer"],
)
def test_an_atom_that_raises_is_solved(make, error, unreached):
    """An atom that raises while being decided leaves the formula to the
    solver: the same typed error when a binding reaches the atom, the
    same rows when none does."""
    gis, ctx = unit_world([("O1", 1, 0.5, 0.5)])
    region = make(gis)
    with pytest.raises(error) as raised:
        region_module._solved(region, ctx)
    with pytest.raises(type(raised.value)):
        region.evaluate(ctx)
    assert ctx.obs.count("regions_solved") == 1
    assert region.path(ctx).startswith("solver: ")
    lowered_equals_solver(region, unit_world(unreached)[1])
