"""Fact tables over OLAP dimensions.

A fact table schema names its dimension attributes (each tied to a
dimension and a level of that dimension) and its measures; instances are
in-memory relations with a row API plus a columnar view for bulk
aggregation.  The classical fact tables of the paper's application part
("economic information based on these dimensions",
``(neighborhood, Year, Population)``) live here; the *GIS* and *moving
object* fact tables of Definitions 3 and Section 3 are built on top in
:mod:`repro.gis.facts` and :mod:`repro.mo.moft`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import AggregationError, SchemaError
from repro.olap.aggregation import AggregateFunction, aggregate
from repro.olap.dimension import DimensionInstance


@dataclass(frozen=True)
class DimensionAttribute:
    """A fact-table column bound to a dimension level."""

    name: str
    dimension: str
    level: str


@dataclass(frozen=True)
class FactTableSchema:
    """Schema of a fact table: dimension attributes plus measures."""

    name: str
    dimension_attributes: Tuple[DimensionAttribute, ...]
    measures: Tuple[str, ...]

    def __init__(
        self,
        name: str,
        dimension_attributes: Sequence[DimensionAttribute],
        measures: Sequence[str],
    ) -> None:
        if not name:
            raise SchemaError("fact table name must be non-empty")
        attrs = tuple(dimension_attributes)
        meas = tuple(measures)
        names = [a.name for a in attrs] + list(meas)
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate column names in fact table {name!r}")
        if not attrs and not meas:
            raise SchemaError(f"fact table {name!r} has no columns")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "dimension_attributes", attrs)
        object.__setattr__(self, "measures", meas)

    @property
    def columns(self) -> List[str]:
        """All column names, dimension attributes first."""
        return [a.name for a in self.dimension_attributes] + list(self.measures)

    def attribute(self, name: str) -> DimensionAttribute:
        """Look up a dimension attribute by column name."""
        for attr in self.dimension_attributes:
            if attr.name == name:
                return attr
        raise SchemaError(
            f"no dimension attribute {name!r} in fact table {self.name!r}"
        )


class FactTable:
    """An in-memory relation conforming to a :class:`FactTableSchema`."""

    def __init__(self, schema: FactTableSchema) -> None:
        self.schema = schema
        self._columns: Dict[str, List[Hashable]] = {
            column: [] for column in schema.columns
        }
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # -- loading ----------------------------------------------------------------

    def insert(self, row: Mapping[str, Hashable]) -> None:
        """Append one row; all schema columns must be present."""
        missing = [c for c in self.schema.columns if c not in row]
        if missing:
            raise SchemaError(
                f"row missing columns {missing} for fact table "
                f"{self.schema.name!r}"
            )
        for column in self.schema.columns:
            self._columns[column].append(row[column])
        self._size += 1

    def insert_many(self, rows: Iterable[Mapping[str, Hashable]]) -> None:
        """Append many rows."""
        for row in rows:
            self.insert(row)

    # -- row access ---------------------------------------------------------------

    def rows(self) -> Iterator[Dict[str, Hashable]]:
        """Iterate over rows as dictionaries."""
        for i in range(self._size):
            yield {
                column: values[i] for column, values in self._columns.items()
            }

    def column(self, name: str) -> List[Hashable]:
        """Return a copy of one column."""
        try:
            return list(self._columns[name])
        except KeyError:
            raise SchemaError(
                f"no column {name!r} in fact table {self.schema.name!r}"
            ) from None

    # -- relational operations ------------------------------------------------------

    def select(self, predicate) -> "FactTable":
        """Return a new fact table with the rows satisfying ``predicate``."""
        result = FactTable(self.schema)
        result.insert_many(row for row in self.rows() if predicate(row))
        return result

    def aggregate(
        self,
        function: AggregateFunction | str,
        measure: Optional[str] = None,
        group_by: Sequence[str] = (),
    ) -> Dict[Tuple[Hashable, ...], float]:
        """Apply ``γ_{f measure(group_by)}`` to this table."""
        if measure is not None and measure not in self.schema.columns:
            raise AggregationError(
                f"no column {measure!r} in fact table {self.schema.name!r}"
            )
        for attr in group_by:
            if attr not in self.schema.columns:
                raise AggregationError(
                    f"no column {attr!r} in fact table {self.schema.name!r}"
                )
        return aggregate(self.rows(), function, measure, group_by)

    def rolled_up(
        self,
        dimensions: Mapping[str, DimensionInstance],
        attribute_name: str,
        to_level: str,
    ) -> "FactTable":
        """Return a copy with ``attribute_name`` mapped to a coarser level.

        Every value of the attribute column is replaced by its ancestor at
        ``to_level`` using the rollup functions of the attribute's
        dimension; the schema of the result binds the column to the new
        level.  This is the classical OLAP ROLLUP along one dimension.
        """
        attr = self.schema.attribute(attribute_name)
        try:
            instance = dimensions[attr.dimension]
        except KeyError:
            raise SchemaError(
                f"no dimension instance provided for {attr.dimension!r}"
            ) from None
        new_attrs = tuple(
            DimensionAttribute(a.name, a.dimension, to_level)
            if a.name == attribute_name
            else a
            for a in self.schema.dimension_attributes
        )
        new_schema = FactTableSchema(
            self.schema.name, new_attrs, self.schema.measures
        )
        result = FactTable(new_schema)
        for row in self.rows():
            new_row = dict(row)
            new_row[attribute_name] = instance.rollup(
                row[attribute_name], attr.level, to_level
            )
            result.insert(new_row)
        return result
