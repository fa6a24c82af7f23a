"""Tests for calendar helpers and instant mappings."""

from datetime import datetime, timedelta

import pytest
from hypothesis import given, strategies as st

from repro.errors import SchemaError
from repro.temporal import (
    InstantMapping,
    day_of_week_name,
    every_minutes,
    hourly,
    time_of_day_for_hour,
    type_of_day,
)


class TestTimeOfDay:
    def test_default_boundaries(self):
        assert time_of_day_for_hour(0) == "Night"
        assert time_of_day_for_hour(5) == "Night"
        assert time_of_day_for_hour(6) == "Morning"
        assert time_of_day_for_hour(11) == "Morning"
        assert time_of_day_for_hour(12) == "Afternoon"
        assert time_of_day_for_hour(18) == "Evening"
        assert time_of_day_for_hour(23) == "Evening"

    def test_out_of_range(self):
        with pytest.raises(SchemaError):
            time_of_day_for_hour(24)
        with pytest.raises(SchemaError):
            time_of_day_for_hour(-1)

    def test_custom_parts(self):
        parts = {"AM": (0, 12), "PM": (12, 24)}
        assert time_of_day_for_hour(3, parts) == "AM"
        assert time_of_day_for_hour(15, parts) == "PM"

    def test_uncovered_hour_raises(self):
        with pytest.raises(SchemaError):
            time_of_day_for_hour(13, {"AM": (0, 12)})


class TestDayClassification:
    def test_weekday_names(self):
        # 2006-01-07 is a Saturday (from the paper's example query 4 date).
        assert day_of_week_name(datetime(2006, 1, 7)) == "Saturday"
        assert day_of_week_name(datetime(2006, 1, 9)) == "Monday"

    def test_type_of_day(self):
        assert type_of_day(datetime(2006, 1, 7)) == "Weekend"
        assert type_of_day(datetime(2006, 1, 9)) == "Weekday"


class TestInstantMapping:
    EPOCH = datetime(2006, 1, 7, 0, 0)

    def test_positive_step_required(self):
        with pytest.raises(SchemaError):
            InstantMapping(self.EPOCH, timedelta(0))

    def test_hourly_roundtrip(self):
        mapping = hourly(self.EPOCH)
        assert mapping.to_datetime(9) == datetime(2006, 1, 7, 9, 0)
        assert mapping.from_datetime(datetime(2006, 1, 7, 9, 30)) == 9

    def test_every_minutes(self):
        mapping = every_minutes(self.EPOCH, 15)
        assert mapping.to_datetime(4) == datetime(2006, 1, 7, 1, 0)

    def test_every_minutes_validation(self):
        with pytest.raises(SchemaError):
            every_minutes(self.EPOCH, 0)

    def test_negative_instants(self):
        mapping = hourly(self.EPOCH)
        assert mapping.to_datetime(-2) == datetime(2006, 1, 6, 22, 0)

    @given(st.integers(min_value=-10000, max_value=10000))
    def test_roundtrip_property(self, t):
        mapping = every_minutes(self.EPOCH, 5)
        assert mapping.from_datetime(mapping.to_datetime(t)) == t
