"""E2 — Figure 2: the GIS dimension schema.

Regenerates the schema (three layer hierarchies + Time dimension +
application part) and validates every structural property the figure and
Example 2 state, timing full construction + validation.
"""

import pytest

from repro.bench import print_table
from repro.gis import ALL, LINE, NODE, POINT, POLYGON, POLYLINE
from repro.synth import figure1_gis, figure1_time, figure2_schema


def _build_and_validate():
    schema = figure2_schema()
    gis = figure1_gis()
    time = figure1_time()
    time.instance.check_consistency()
    gis.application_instance("Neighbourhoods").check_consistency()
    return schema, gis, time


def test_figure2_schema(benchmark):
    schema, gis, time = benchmark(_build_and_validate)

    # Example 2: H1(Lr) = point -> line -> polyline -> All.
    rivers = schema.hierarchy("Lr")
    assert set(rivers.edges()) == {
        (POINT, LINE),
        (LINE, POLYLINE),
        (POLYLINE, ALL),
    }
    # Schools: point -> node -> All; neighborhoods: point -> polygon -> All.
    assert set(schema.hierarchy("Ls").edges()) == {(POINT, NODE), (NODE, ALL)}
    assert set(schema.hierarchy("Ln").edges()) == {
        (POINT, POLYGON),
        (POLYGON, ALL),
    }
    # Placements of Example 2: AtG(neighborhood) = (polygon, Ln) etc.
    assert schema.placement("neighborhood").layer == "Ln"
    assert schema.placement("river").layer == "Lr"
    # Application part: neighborhood -> city (Example 1).
    neigh = schema.application_dimension("Neighbourhoods")
    assert neigh.rolls_up_to("neighborhood", "city")
    # Time dimension levels of the figure.
    for level in ("timeId", "hour", "timeOfDay", "day", "month", "year"):
        assert level in time.instance.schema.levels

    rows = [
        (name, sorted(schema.hierarchy(name).kinds - {POINT, ALL}))
        for name in schema.layer_names
    ]
    print_table("Figure 2 hierarchies", ["layer", "identifiable kinds"], rows)
