"""Tests for fact tables and rollup along dimensions."""

import pytest

from repro.errors import AggregationError, SchemaError
from repro.olap import (
    DimensionAttribute,
    DimensionInstance,
    DimensionSchema,
    FactTable,
    FactTableSchema,
)


def time_dim() -> DimensionInstance:
    schema = DimensionSchema("Time", [("hour", "dayPart")])
    inst = DimensionInstance(schema)
    for hour in range(6, 12):
        inst.set_rollup("hour", hour, "dayPart", "Morning")
    for hour in range(12, 18):
        inst.set_rollup("hour", hour, "dayPart", "Afternoon")
    return inst


def sales_schema() -> FactTableSchema:
    return FactTableSchema(
        "sales",
        [DimensionAttribute("hour", "Time", "hour")],
        ["amount"],
    )


def sales_table() -> FactTable:
    table = FactTable(sales_schema())
    table.insert_many(
        [
            {"hour": 9, "amount": 10.0},
            {"hour": 10, "amount": 20.0},
            {"hour": 14, "amount": 5.0},
            {"hour": 15, "amount": 15.0},
        ]
    )
    return table


class TestSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            FactTableSchema(
                "bad",
                [DimensionAttribute("x", "D", "l")],
                ["x"],
            )

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            FactTableSchema("bad", [], [])

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            FactTableSchema("", [], ["m"])

    def test_columns_order(self):
        assert sales_schema().columns == ["hour", "amount"]

    def test_attribute_lookup(self):
        attr = sales_schema().attribute("hour")
        assert attr.dimension == "Time"
        with pytest.raises(SchemaError):
            sales_schema().attribute("amount")


class TestFactTable:
    def test_insert_and_len(self):
        assert len(sales_table()) == 4

    def test_insert_missing_column_raises(self):
        table = FactTable(sales_schema())
        with pytest.raises(SchemaError):
            table.insert({"hour": 9})

    def test_rows_roundtrip(self):
        rows = list(sales_table().rows())
        assert rows[0] == {"hour": 9, "amount": 10.0}
        assert len(rows) == 4

    def test_column_copy_is_independent(self):
        table = sales_table()
        col = table.column("hour")
        col.append(99)
        assert len(table.column("hour")) == 4

    def test_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            sales_table().column("nope")

    def test_select(self):
        morning = sales_table().select(lambda row: row["hour"] < 12)
        assert len(morning) == 2

    def test_aggregate(self):
        result = sales_table().aggregate("SUM", "amount", group_by=["hour"])
        assert result[(9,)] == 10.0

    def test_aggregate_unknown_column_raises(self):
        with pytest.raises(AggregationError):
            sales_table().aggregate("SUM", "nope")
        with pytest.raises(AggregationError):
            sales_table().aggregate("COUNT", None, group_by=["nope"])


class TestRolledUp:
    def test_rollup_to_day_part(self):
        table = sales_table().rolled_up({"Time": time_dim()}, "hour", "dayPart")
        result = table.aggregate("SUM", "amount", group_by=["hour"])
        assert result[("Morning",)] == 30.0
        assert result[("Afternoon",)] == 20.0

    def test_rollup_updates_schema_level(self):
        table = sales_table().rolled_up({"Time": time_dim()}, "hour", "dayPart")
        assert table.schema.attribute("hour").level == "dayPart"

    def test_rollup_missing_dimension_raises(self):
        with pytest.raises(SchemaError):
            sales_table().rolled_up({}, "hour", "dayPart")
