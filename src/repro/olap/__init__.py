"""Classical OLAP substrate: dimensions, fact tables, γ-aggregation, cubes.

Implements the application part of the paper's model — Hurtado–Mendelzon–
Vaisman dimensions with rollup functions, fact tables over them, the
aggregate operation of Definition 7 and a data-cube view.
"""

from repro.olap.dimension import (
    ALL_LEVEL,
    ALL_MEMBER,
    DimensionInstance,
    DimensionSchema,
    LevelOrder,
)
from repro.olap.aggregation import AggregateFunction, aggregate
from repro.olap.facttable import (
    DimensionAttribute,
    FactTable,
    FactTableSchema,
)
from repro.olap.cube import Cube
from repro.olap.solap import (
    poi_parent_mapping,
    spatial_drilldown,
)

__all__ = [
    "ALL_LEVEL",
    "ALL_MEMBER",
    "DimensionInstance",
    "DimensionSchema",
    "LevelOrder",
    "AggregateFunction",
    "aggregate",
    "DimensionAttribute",
    "FactTable",
    "FactTableSchema",
    "Cube",
    "poi_parent_mapping",
    "spatial_drilldown",
]
