"""γ over a region's codes against γ over its rows.

``MovingObjectAggregateQuery.run`` groups the region's
:class:`~repro.query.region.RegionRelation` by its codes.  The reference
is Definition 7's operator over ``evaluate``'s dict rows:
``repro.olap.aggregate``, or a per-group ``set`` for COUNT DISTINCT, then
one division for a per-span query.  Inputs: every region of the lowering
differential (``CASES`` of tests/query/test_vectorized.py, lowered and
solved), hypothesis-drawn conjunctions of its grammar, and empty regions.
Each runs every fold whose measure is an output, grouped by every subset
of the outputs, with and without a per-span division.  COUNT, COUNT
DISTINCT, MIN and MAX compare with ``==``; SUM and AVG within
``rel=1e-12``, as γ adds in the relation's row order, not ``evaluate``'s.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AggregationError, QueryError, ReproError
from repro.olap import aggregate
from repro.query import AggregateSpec, MovingObjectAggregateQuery, RegionBuilder
from repro.query.region import RegionRelation
from repro.synth import figure1_instance
from tests.query.test_vectorized import (
    CASES,
    conjunctions,
    drawn_world,
    lowered_equals_solver,
    samples_strategy,
    tuple_oids,
)

#: (function, measure, distinct), each run when its measure is an output.
FOLDS = [
    ("COUNT", None, False),
    *[(f, m, False) for f in ("SUM", "AVG", "MIN", "MAX") for m in ("t", "x")],
    ("MIN", "oid", False),
    ("COUNT", "oid", True),
]
REL = 1e-12


def a_span(ctx):
    """A ``(level, member)`` of the world's Time dimension to divide by:
    the morning, else the hour of its first instant, else None."""
    first = min(ctx.time.instants, default=None)
    for level, member in (
        ("timeOfDay", "Morning"),
        ("hour", None if first is None else ctx.time.try_rollup(first, "hour")),
    ):
        try:
            ctx.time.span(level, member)
        except ReproError:
            continue
        return level, member
    return None


def reference(rows, spec, span):
    """Definition 7's γ over the dict rows, divided by ``span``."""
    if spec.distinct:
        groups = {}
        for row in rows:
            key = tuple(row[c] for c in spec.group_by)
            groups.setdefault(key, set()).add(row[spec.measure])
        result = {key: float(len(values)) for key, values in groups.items()}
    elif rows:
        result = aggregate(rows, spec.function, spec.measure, spec.group_by)
    else:
        result = {}
    if span is not None:
        result = {key: value / span for key, value in result.items()}
    return result


def specs(region, ctx):
    """Every fold over the outputs, by every grouping, with and without a
    per-span division: ``(spec, span)`` pairs."""
    outputs = region.output_variables
    spans = [None, a_span(ctx)] if a_span(ctx) else [None]
    for function, measure, distinct in FOLDS:
        if measure is not None and measure not in outputs:
            continue
        for size in range(len(outputs) + 1):
            for group_by in combinations(outputs, size):
                for span in spans:
                    level, member = span or (None, None)
                    yield AggregateSpec(
                        function, measure, group_by, distinct, level, member
                    ), span and ctx.time.span(*span)


def assert_gamma_matches(region, ctx):
    """Every spec's ``run`` equals the reference over ``evaluate``, which
    equals the solver's rows; returns how many specs ran."""
    lowered_equals_solver(region, ctx)
    rows = region.evaluate(ctx)
    ran = 0
    for spec, span in specs(region, ctx):
        query = MovingObjectAggregateQuery(region, spec)
        try:
            expected = reference(rows, spec, span)
        except (AggregationError, TypeError) as error:
            with pytest.raises(type(error)):
                query.run(ctx)
            continue
        got = query.run(ctx)
        ran += 1
        assert list(got) == sorted(got, key=repr), spec
        if spec.function.value in ("SUM", "AVG") and not spec.distinct:
            assert got.keys() == expected.keys(), spec
            for key, value in expected.items():
                assert got[key] == pytest.approx(value, rel=REL), (spec, key)
        else:
            assert got == expected, spec
            assert [type(v) for v in got.values()] == [
                type(expected[k]) for k in got
            ], spec
    return ran


@pytest.mark.parametrize("case", [*CASES, "tuple_oids"])
def test_gamma_equals_the_reference(case):
    region, ctx, _ = (tuple_oids if case == "tuple_oids" else CASES[case])()
    assert assert_gamma_matches(region, ctx) > 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=500, max_value=3000), min_size=11, max_size=11),
    samples_strategy,
    conjunctions(),
)
def test_drawn_conjunctions(incomes, samples, region):
    assert_gamma_matches(region, drawn_world(incomes, samples)) >= 0


#: No instant is hour 99, and Q4's constant instant 99 keeps it solved.
EMPTY = {
    "lowered": RegionBuilder().from_moft("FMbus").during("hour", 99),
    "solved": RegionBuilder()
    .from_moft("FMbus", at_instant=99)
    .in_attribute_polygon("neighborhood", member="zuid"),
}


@pytest.mark.parametrize("path", list(EMPTY))
def test_empty_region(path):
    """An empty region: ``run`` is ``{}``; ``run_scalar`` is 0 for the
    counts and raises for the value aggregates."""
    fig1 = figure1_instance()
    region, ctx = EMPTY[path].build(fig1.gis), fig1.context()
    assert region.evaluate(ctx) == []
    assert ctx.obs.count(f"regions_{path}") == 1
    for function, measure, distinct in FOLDS:
        if measure not in (None, *region.output_variables):
            continue
        spec = AggregateSpec(function, measure, distinct=distinct)
        query = MovingObjectAggregateQuery(region, spec)
        assert query.run(ctx) == {}
        if function == "COUNT":
            assert query.run_scalar(ctx) == 0.0
        else:
            with pytest.raises(QueryError):
                query.run_scalar(ctx)


def test_packed_key_never_overflows():
    """Five columns of 2**16 values each: packed naively, two rows that
    differ only in the first column collide modulo 2**64."""
    values = [np.arange(2.0**16)] * 5
    codes = [[0, 1, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0], [7, 7, 7]]
    relation = RegionRelation("abcde", codes, values)
    assert sorted(relation.rows()) == [
        (0.0, 0.0, 0.0, 0.0, 7.0), (1.0, 0.0, 0.0, 0.0, 7.0),
    ]
    first, group = relation.group("ae")
    assert first.size == 2 and group.size == 2


def test_remark1_counts():
    """Remark 1 through γ: 4 samples, 4/3 per morning hour, 2 objects,
    and O1 three times, O2 once."""
    region, ctx, _ = CASES["remark1"]()
    span = dict(per_span_level="timeOfDay", per_span_member="Morning")

    def run(**spec):
        return MovingObjectAggregateQuery(region, AggregateSpec(**spec)).run(ctx)

    assert run() == {(): 4}
    assert run(**span) == {(): 4 / 3}
    assert run(measure="oid", distinct=True) == {(): 2.0}
    assert run(group_by=("oid",)) == {("O1",): 3, ("O2",): 1}


def test_non_numeric_measures_raise_as_the_reference():
    region, ctx, _ = CASES["remark1"]()
    for function in ("SUM", "AVG"):
        query = MovingObjectAggregateQuery(region, AggregateSpec(function, "oid"))
        with pytest.raises(AggregationError):
            query.run(ctx)


class TestSpecValidation:
    @pytest.mark.parametrize("function", ["SUM", "AVG", "MIN", "MAX"])
    def test_distinct_only_counts(self, function):
        """A distinct SUM was the distinct count, labelled SUM."""
        with pytest.raises(QueryError):
            AggregateSpec(function=function, measure="t", distinct=True)

    @pytest.mark.parametrize("function", ["SUM", "AVG", "MIN", "MAX"])
    def test_value_aggregates_need_a_measure(self, function):
        with pytest.raises(QueryError):
            AggregateSpec(function=function)

    def test_distinct_count_is_allowed(self):
        spec = AggregateSpec(function="count", measure="oid", distinct=True)
        assert spec.distinct
