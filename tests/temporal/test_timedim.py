"""Tests for the Time dimension."""

from datetime import datetime

import pytest

from repro.errors import RollupError, SchemaError
from repro.olap import ALL_LEVEL, ALL_MEMBER, DimensionInstance, DimensionSchema
from repro.temporal import TimeDimension, hourly, time_dimension_schema


def weekend_day() -> TimeDimension:
    """Hourly instants covering Saturday 2006-01-07 (paper's date)."""
    mapping = hourly(datetime(2006, 1, 7, 0, 0))
    return TimeDimension.from_mapping(mapping, range(24))


def two_days() -> TimeDimension:
    """Hourly instants over Sat 2006-01-07 and Mon 2006-01-09 (48 apart)."""
    mapping = hourly(datetime(2006, 1, 7, 0, 0))
    return TimeDimension.from_mapping(mapping, list(range(24)) + list(range(48, 72)))


class TestSchema:
    def test_bottom_is_time_id(self):
        assert time_dimension_schema().bottom_level == "timeId"

    def test_expected_levels(self):
        levels = time_dimension_schema().levels
        for level in (
            "timeId",
            "hour",
            "timeOfDay",
            "day",
            "dayOfWeek",
            "typeOfDay",
            "month",
            "year",
            ALL_LEVEL,
        ):
            assert level in levels

    def test_wrapping_requires_time_id_bottom(self):
        other = DimensionInstance(DimensionSchema("NotTime", [("a", "b")]))
        with pytest.raises(SchemaError):
            TimeDimension(other)


class TestFromMapping:
    def test_hour_rollup(self):
        td = weekend_day()
        assert td.rollup(9, "hour") == 9
        assert td.rollup(15, "hour") == 15

    def test_day_rollup(self):
        td = weekend_day()
        assert td.rollup(9, "day") == "2006-01-07"

    def test_time_of_day(self):
        td = weekend_day()
        assert td.rollup(9, "timeOfDay") == "Morning"
        assert td.rollup(3, "timeOfDay") == "Night"
        assert td.rollup(20, "timeOfDay") == "Evening"

    def test_day_of_week_and_type(self):
        td = two_days()
        assert td.rollup(9, "dayOfWeek") == "Saturday"
        assert td.rollup(9, "typeOfDay") == "Weekend"
        assert td.rollup(57, "dayOfWeek") == "Monday"
        assert td.rollup(57, "typeOfDay") == "Weekday"

    def test_month_and_year(self):
        td = weekend_day()
        assert td.rollup(9, "month") == "2006-01"
        assert td.rollup(9, "year") == 2006

    def test_rollup_to_all(self):
        td = weekend_day()
        assert td.rollup(9, ALL_LEVEL) == ALL_MEMBER

    def test_consistency(self):
        two_days().instance.check_consistency()

    def test_instants(self):
        assert len(weekend_day().instants) == 24


class TestQueries:
    def test_matches(self):
        td = weekend_day()
        assert td.matches(9, "timeOfDay", "Morning")
        assert not td.matches(15, "timeOfDay", "Morning")

    def test_matches_unregistered_instant(self):
        td = weekend_day()
        assert not td.matches(999, "timeOfDay", "Morning")

    def test_instants_where(self):
        td = weekend_day()
        morning = td.instants_where("timeOfDay", "Morning")
        assert morning == set(range(6, 12))

    def test_span(self):
        td = weekend_day()
        assert td.span("timeOfDay", "Morning") == 6
        assert td.span("day", "2006-01-07") == 24

    def test_span_unknown_member_raises(self):
        with pytest.raises(RollupError):
            weekend_day().span("timeOfDay", "Brunch")

    def test_try_rollup_unregistered(self):
        assert weekend_day().try_rollup(999, "hour") is None


class TestExplicitRollups:
    def test_paper_style_morning(self):
        # Figure 1 / Remark 1: instants 2..4 are "the morning".
        rollups = []
        for t in (1, 2, 3, 4, 5, 6):
            rollups.append(("timeId", t, "hour", t))
        for t in (2, 3, 4):
            rollups.append(("hour", t, "timeOfDay", "Morning"))
        for t in (1, 5, 6):
            rollups.append(("hour", t, "timeOfDay", "Other"))
        td = TimeDimension.from_explicit_rollups(rollups)
        assert td.instants_where("timeOfDay", "Morning") == {2, 3, 4}
        assert td.span("timeOfDay", "Morning") == 3


class TestInstantIndex:
    """``instants_where`` / ``span`` read a per-level index cached by the
    instance's version: after a rollup edit they still equal the
    per-instant definition."""

    @staticmethod
    def by_definition(td: TimeDimension, level, member):
        return {t for t in td.instants if td.try_rollup(t, level) == member}

    def test_rollup_edit_moves_the_index(self):
        td = weekend_day()
        assert td.instants_where("timeOfDay", "Morning") == set(range(6, 12))
        version = td.instance.version
        # A new instant on the next day, and an hour that was not yet
        # registered moving into an existing day part.
        td.instance.set_rollup("timeId", 24, "day", "2006-01-08")
        td.instance.set_rollup("timeId", 24, "hour", 24)
        td.instance.set_rollup("hour", 24, "timeOfDay", "Morning")
        assert td.instance.version != version
        for level, member in [
            ("timeOfDay", "Morning"),
            ("day", "2006-01-08"),
            ("day", "2006-01-07"),
            ("hour", 24),
        ]:
            expected = self.by_definition(td, level, member)
            assert td.instants_where(level, member) == expected
            assert td.span(level, member) == len(expected)
        assert 24 in td.instants_where("timeOfDay", "Morning")

    def test_unknown_member_and_unrolled_instants(self):
        td = weekend_day()
        assert td.instants_where("timeOfDay", "Brunch") == set()
        td.instance.add_member("timeId", 99)
        assert td.instants_where("day", None) == {99}
        assert td.instants_where("day", "2006-01-07") == set(range(24))

    def test_numeric_members_match_by_value(self):
        td = weekend_day()
        assert td.instants_where("hour", 9.0) == td.instants_where("hour", 9)
        assert td.instants_where("hour", 9) == {9}
