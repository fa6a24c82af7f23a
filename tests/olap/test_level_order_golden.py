"""Definition 1's level orders, pinned to what they were before the
in-repo :class:`~repro.olap.dimension.LevelOrder` replaced a general
graph library behind them.

``level_order_golden.json`` holds every dimension schema and layer
hierarchy the tier-1 suite constructs, those of Figure 1, the synthetic
city and the Time dimension, plus the violations Definition 1 rules out
(a cycle, two bottoms, a level no bottom reaches, ``All`` with an
outgoing edge) and a tie between two shortest rollup paths.  For each
it records what the schema answers: its levels or kinds, ``edges()`` in
order, ``path`` / ``all_paths`` for every ordered pair of levels, the
coarsenings, or the ``SchemaError`` message.
"""

import json
from pathlib import Path

import pytest

from repro.errors import SchemaError
from repro.gis.schema import LayerHierarchy
from repro.olap.dimension import DimensionSchema

CASES = json.loads(
    Path(__file__).with_name("level_order_golden.json").read_text()
)


def describe(kind, name, edges):
    pairs = None if edges is None else [tuple(e) for e in edges]
    try:
        if kind == "dimension":
            schema = DimensionSchema(name, pairs)
        else:
            schema = LayerHierarchy(name, pairs)
    except SchemaError as err:
        return {"error": str(err)}
    if kind == "hierarchy":
        kinds = sorted(schema.kinds)
        return {
            "kinds": kinds,
            "edges": [list(e) for e in schema.edges()],
            "coarsenings": [
                [a, b] for a in kinds for b in kinds
                if schema.is_coarsening(a, b)
            ],
        }
    levels = sorted(schema.levels)
    paths = {}
    for a in levels:
        for b in levels:
            entry = {"all_paths": schema.all_paths(a, b)}
            if schema.rolls_up_to(a, b):
                entry = {"path": schema.path(a, b), **entry}
            paths[f"{a} -> {b}"] = entry
    return {
        "levels": levels,
        "edges": [list(e) for e in schema.edges()],
        "bottom": schema.bottom_level,
        "children": {level: sorted(schema.children(level)) for level in levels},
        "paths": paths,
    }


@pytest.mark.parametrize(
    "case",
    CASES,
    ids=[
        f"{case['kind']}-{case['name'] or 'unnamed'}-{i}"
        for i, case in enumerate(CASES)
    ],
)
def test_level_order_unchanged(case):
    assert describe(case["kind"], case["name"], case["edges"]) == case["expect"]


def test_golden_covers_the_violations_and_a_tie():
    errors = {c["expect"].get("error", "") for c in CASES}
    assert "dimension 'cycle' has a rollup cycle" in errors
    assert any("exactly one bottom level" in e for e in errors)
    assert "dimension 'unreachable' has a rollup cycle" in errors
    assert "'All' must have no outgoing edges" in errors
    tie = next(c for c in CASES if c["name"] == "tie")
    assert tie["expect"]["paths"]["s -> t"]["path"] == ["s", "b", "t"]
