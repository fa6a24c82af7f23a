"""A lightweight data-cube view over a fact table.

The paper frames OLAP data as "a data cube, where each cell ... contains a
measure or set of (probably aggregated) measures of interest".  This module
provides the standard cube operations over :class:`~repro.olap.facttable.FactTable`:
roll-up, drill-down (against the retained base table), slice and dice.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional, Sequence, Tuple

from repro.errors import AggregationError, SchemaError
from repro.olap.aggregation import AggregateFunction
from repro.olap.dimension import DimensionInstance
from repro.olap.facttable import FactTable


class Cube:
    """A cube = base fact table + dimension instances + a measure policy.

    The cube never mutates the base table; every operation returns either a
    new :class:`Cube` (slice/dice) or a plain dict of cells (rollup).
    """

    def __init__(
        self,
        fact_table: FactTable,
        dimensions: Mapping[str, DimensionInstance],
    ) -> None:
        self.fact_table = fact_table
        self.dimensions = dict(dimensions)
        for attr in fact_table.schema.dimension_attributes:
            if attr.dimension not in self.dimensions:
                raise SchemaError(
                    f"cube is missing dimension instance {attr.dimension!r}"
                )
            schema = self.dimensions[attr.dimension].schema
            if attr.level not in schema.levels:
                raise SchemaError(
                    f"fact attribute {attr.name!r} bound to unknown level "
                    f"{attr.level!r} of dimension {attr.dimension!r}"
                )

    def __len__(self) -> int:
        return len(self.fact_table)

    @classmethod
    def from_rows(
        cls,
        name: str,
        attributes: Sequence[Tuple[str, str, str, DimensionInstance]],
        measures: Sequence[str],
        rows: Sequence[Mapping[str, Hashable]],
    ) -> "Cube":
        """Build a cube from plain rows in one call.

        ``attributes`` is a sequence of ``(column, dimension, level,
        instance)`` tuples; the fact-table schema and the dimension
        mapping are derived from it.  Used by derived stores (e.g.
        :meth:`repro.cellstore.GranuleStore.as_cube`) that materialize their
        cells as a cube without hand-assembling schema objects.
        """
        from repro.olap.facttable import DimensionAttribute, FactTableSchema

        schema = FactTableSchema(
            name,
            [
                DimensionAttribute(column, dimension, level)
                for column, dimension, level, _ in attributes
            ],
            measures,
        )
        table = FactTable(schema)
        table.insert_many(rows)
        return cls(
            table,
            {dimension: instance for _, dimension, _, instance in attributes},
        )

    # -- cube operations -----------------------------------------------------

    def rollup(
        self,
        levels: Mapping[str, str],
        function: AggregateFunction | str,
        measure: Optional[str] = None,
    ) -> Dict[Tuple[Hashable, ...], float]:
        """Aggregate cells at the requested granularity.

        Parameters
        ----------
        levels:
            Mapping ``attribute name -> target level``.  Attributes not
            mentioned are aggregated away entirely (rolled up to All and
            dropped from the group key).
        function, measure:
            The aggregation to apply within each cell.

        Returns
        -------
        dict
            Mapping from tuples of the target-level members (in the order
            of ``levels``) to aggregated measure values.
        """
        table = self.fact_table
        for attribute_name, level in levels.items():
            table = table.rolled_up(self.dimensions, attribute_name, level)
        return table.aggregate(function, measure, group_by=list(levels))

    def slice(self, attribute_name: str, member: Hashable) -> "Cube":
        """Fix one dimension attribute to a member, dropping other values."""
        self.fact_table.schema.attribute(attribute_name)  # validates
        sliced = self.fact_table.select(
            lambda row: row[attribute_name] == member
        )
        return Cube(sliced, self.dimensions)

    def slice_at_level(
        self, attribute_name: str, level: str, member: Hashable
    ) -> "Cube":
        """Slice by a member of a *coarser* level.

        Keeps base rows whose attribute value rolls up to ``member`` at
        ``level`` — e.g. slice daily facts by month.
        """
        attr = self.fact_table.schema.attribute(attribute_name)
        instance = self.dimensions[attr.dimension]
        sliced = self.fact_table.select(
            lambda row: instance.try_rollup(
                row[attribute_name], attr.level, level
            )
            == member
        )
        return Cube(sliced, self.dimensions)

    def dice(self, predicate) -> "Cube":
        """Keep the rows satisfying an arbitrary row predicate."""
        return Cube(self.fact_table.select(predicate), self.dimensions)

    def drilldown(
        self,
        levels: Mapping[str, str],
        function: AggregateFunction | str,
        measure: Optional[str] = None,
    ) -> Dict[Tuple[Hashable, ...], float]:
        """Re-aggregate at a finer granularity.

        Since the cube retains its base table, drill-down is just a rollup
        to finer levels; the method exists to make intent explicit and to
        validate that each requested level is at or below the attribute's
        base level is not required (any level of the dimension works).
        """
        return self.rollup(levels, function, measure)
