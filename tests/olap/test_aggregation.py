"""Tests for the γ aggregation operator (Definition 7)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import AggregationError
from repro.olap import AggregateFunction, aggregate

ROWS = [
    {"oid": "O1", "hour": 9, "speed": 30.0},
    {"oid": "O1", "hour": 10, "speed": 50.0},
    {"oid": "O2", "hour": 9, "speed": 40.0},
    {"oid": "O2", "hour": 10, "speed": 60.0},
    {"oid": "O3", "hour": 9, "speed": 20.0},
]


class TestParse:
    def test_parse_upper_and_lower(self):
        assert AggregateFunction.parse("count") is AggregateFunction.COUNT
        assert AggregateFunction.parse(" AVG ") is AggregateFunction.AVG

    def test_parse_unknown_raises(self):
        with pytest.raises(AggregationError):
            AggregateFunction.parse("median")


class TestApply:
    def test_each_function(self):
        values = [3, 1, 2]
        assert AggregateFunction.MIN.apply(values) == 1
        assert AggregateFunction.MAX.apply(values) == 3
        assert AggregateFunction.COUNT.apply(values) == 3
        assert AggregateFunction.SUM.apply(values) == 6
        assert AggregateFunction.AVG.apply(values) == 2

    def test_empty_group_raises(self):
        with pytest.raises(AggregationError):
            AggregateFunction.SUM.apply([])

    def test_non_numeric_sum_raises(self):
        with pytest.raises(AggregationError):
            AggregateFunction.SUM.apply(["a", "b"])

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1))
    def test_min_max_bound_avg(self, values):
        low = AggregateFunction.MIN.apply(values)
        high = AggregateFunction.MAX.apply(values)
        mean = AggregateFunction.AVG.apply(values)
        assert low <= mean <= high

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1))
    def test_sum_equals_count_times_avg(self, values):
        total = AggregateFunction.SUM.apply(values)
        count = AggregateFunction.COUNT.apply(values)
        mean = AggregateFunction.AVG.apply(values)
        assert total == pytest.approx(count * mean)


class TestAggregate:
    def test_global_count(self):
        assert aggregate(ROWS, "COUNT", None) == {(): 5}

    def test_group_by_hour_count(self):
        result = aggregate(ROWS, "COUNT", None, group_by=["hour"])
        assert result == {(9,): 3, (10,): 2}

    def test_group_by_hour_avg_speed(self):
        result = aggregate(ROWS, "AVG", "speed", group_by=["hour"])
        assert result[(9,)] == pytest.approx(30.0)
        assert result[(10,)] == pytest.approx(55.0)

    def test_group_by_two_attributes(self):
        result = aggregate(ROWS, "SUM", "speed", group_by=["oid", "hour"])
        assert result[("O1", 9)] == 30.0
        assert len(result) == 5

    def test_missing_group_attribute_raises(self):
        with pytest.raises(AggregationError):
            aggregate(ROWS, "COUNT", None, group_by=["nothere"])

    def test_missing_measure_raises(self):
        with pytest.raises(AggregationError):
            aggregate(ROWS, "SUM", "nothere")

    def test_measure_required_for_numeric_functions(self):
        with pytest.raises(AggregationError):
            aggregate(ROWS, "SUM", None)

    def test_empty_relation_gives_empty_result(self):
        assert aggregate([], "COUNT", None, group_by=["hour"]) == {}
