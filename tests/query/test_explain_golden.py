"""EXPLAIN text against a golden copy.

``explain_golden.txt`` holds the EXPLAIN text of every case below as
the code rendered it before the through, dwell and POI aggregates
shared one planner, ``actual_s=`` masked.  Each case renders its plan
twice: as planned, and again after executing it.

Two differences from that copy are allowed, both on POI plans only, and
:func:`allowed` names each one:

* an executed POI node gains actuals (``actual_rows``, ``actual_s``),
  and an executed ``ShardedSegmentScan`` says how many shards ran;
* the ``rejected:`` line lists its candidates sorted by cost, the rule
  every plan follows.

:class:`TestAllowedDifferences` pins that both do occur.  Everything
else must come out byte for byte.  To see the text of one case, run
``PYTHONPATH=src python tests/query/test_explain_golden.py <case>``;
with ``--write`` the script rewrites the golden copy from the current
code.
"""

from __future__ import annotations

import pickle
import re
import sys
from datetime import datetime
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np
import pytest

from repro.gis import NODE, POI, POLYGON, POLYLINE
from repro.parallel import ShardedExecutor
from repro.pietql import LayerBinding, PietQLExecutor
from repro.poi import PoiVisitStore
from repro.preagg import PreAggStore
from repro.query.planner import (
    execute_plan,
    execute_poi_plan,
    plan_count_objects_through,
    plan_poi_aggregate,
)
from repro.query.region import EvaluationContext
from repro.synth import (
    CityConfig,
    build_city,
    figure1_instance,
    install_city_pois,
    stop_biased_moft,
)
from repro.synth.movement import random_waypoint_moft
from repro.temporal.calendar import hourly
from repro.temporal.timedim import TimeDimension

GOLDEN = Path(__file__).with_name("explain_golden.txt")
MASK = re.compile(r"actual_s=\d+\.\d+")

FIG1_THROUGH = (
    ("Ln", POLYGON),
    [("intersects", ("Lr", POLYLINE)), ("contains", ("Ls", NODE))],
)
CITY_THROUGH = (("Ln", POLYGON), [("intersects", ("Lr", POLYLINE))])
#: No neighbourhood holds a whole river: an empty geometric answer.
EMPTY = (("Ln", POLYGON), [("contains", ("Lr", POLYLINE))])
MEASURES = (("visits", None), ("visitors", None), ("dwell", None), ("topk", 3))


@lru_cache(maxsize=None)
def world(name: str):
    """``(gis, time, through table, POI table, granule, table name)``."""
    if name == "fig1":
        fig1 = figure1_instance(with_pois=True)
        return fig1.gis, fig1.time, fig1.moft, fig1.moft, "hour", "FMbus"
    city = build_city(
        CityConfig(cols=6, rows=6), rng=np.random.default_rng(20060109)
    )
    time_dim = TimeDimension.from_mapping(
        hourly(datetime(2006, 1, 9, 0, 0)), range(100)
    )
    through = random_waypoint_moft(
        city.bounding_box, n_objects=100, n_instants=100,
        speed=city.config.block_size / 2, rng=np.random.default_rng(42),
    )
    stops = stop_biased_moft(install_city_pois(city), 100, 100)
    return city.gis, time_dim, through, stops, "day", "FM"


def context(name: str, poi: bool = False) -> EvaluationContext:
    """A fresh context (plans read its caches) over one world's table,
    and over a copy of its GIS: a layer keeps the indexes of answers
    for every context over it, and a pickle drops them, so every case
    plans with none built."""
    gis, time_dim, through, stops, _, _ = world(name)
    gis = pickle.loads(pickle.dumps(gis))
    return EvaluationContext(gis, time_dim, stops if poi else through)


def render(plan) -> str:
    return MASK.sub("actual_s=*", plan.render())


def through_case(name, strategy, window=None, shards=None, store=False,
                 query=None) -> Callable[[], str]:
    def run() -> str:
        ctx = context(name)
        target, constraints = query or (
            FIG1_THROUGH if name == "fig1" else CITY_THROUGH
        )
        _, _, _, _, granule, table = world(name)
        if store:
            ctx.register_preagg(PreAggStore(
                ctx.moft(table), ctx.time, granule,
                ctx.gis.layer(target[0]).elements(target[1]),
                layer=target[0], kind=target[1],
            ))
        executor = (
            None if shards is None else ShardedExecutor("serial", n_shards=shards)
        )
        options = dict(moft_name=table, window=window, executor=executor)
        plan = plan_count_objects_through(
            ctx, target, constraints, force_strategy=strategy, **options
        )
        planned = render(plan)
        execute_plan(plan, ctx, target, constraints, **options)
        return planned + "\n--- executed\n" + render(plan)
    return run


def poi_case(name, strategy, measure, k) -> Callable[[], str]:
    def run() -> str:
        ctx = context(name, poi=True)
        _, _, _, _, granule, table = world(name)
        # Every candidate is open, so the rejected line lists two.
        ctx.register_preagg(PoiVisitStore(
            ctx.moft(table), ctx.time, granule,
            dict(ctx.gis.layer("Lp").elements(POI)), layer="Lp",
        ))
        executor = ShardedExecutor("serial", n_shards=8)
        options = dict(moft_name=table, measure=measure, k=k)
        plan = plan_poi_aggregate(
            ctx, "Lp", granule, force_strategy=strategy, executor=executor,
            **options,
        )
        planned = render(plan)
        execute_poi_plan(plan, ctx, "Lp", granule, executor=executor, **options)
        return planned + "\n--- executed\n" + render(plan)
    return run


def pietql_case(name, text) -> Callable[[], str]:
    def run() -> str:
        ctx = context(name, poi="AT layer.Lp" in text)
        bindings = {
            "neighborhoods": LayerBinding("Ln", POLYGON),
            "rivers": LayerBinding("Lr", POLYLINE),
        }
        return render(PietQLExecutor(ctx, bindings).execute(text).plan)
    return run


def build_cases() -> Dict[str, Callable[[], str]]:
    cases: Dict[str, Callable[[], str]] = {}
    windows = {"fig1": ((2.0, 4.0), (2.5, 4.5)), "city": ((24.0, 47.0), (30.5, 80.5))}
    for name in ("fig1", "city"):
        aligned, misaligned = windows[name]
        cases[f"{name}/through/serial"] = through_case(name, "serial")
        cases[f"{name}/through/grid"] = through_case(name, "grid")
        for shards in (1, 8):
            cases[f"{name}/through/sharded-x{shards}"] = through_case(
                name, "sharded", shards=shards
            )
        cases[f"{name}/through/preagg-aligned"] = through_case(
            name, "preagg", aligned, store=True
        )
        cases[f"{name}/through/preagg-misaligned"] = through_case(
            name, "preagg", misaligned, store=True
        )
        cases[f"{name}/through/preagg-empty"] = through_case(
            name, None, aligned, store=True, query=EMPTY
        )
        for strategy in ("serial", "sharded", "preagg"):
            for measure, k in MEASURES:
                cases[f"{name}/poi/{measure}/{strategy}"] = poi_case(
                    name, strategy, measure, k
                )
    during = {"fig1": "hour = '3'", "city": "day = '2006-01-10'"}
    for name, table, schema in (("fig1", "FMbus", "Fig1"), ("city", "FM", "City")):
        cases[f"{name}/pietql/through"] = pietql_case(
            name,
            f"EXPLAIN SELECT layer.neighborhoods FROM {schema} "
            "WHERE intersection(layer.neighborhoods, layer.rivers) "
            f"| COUNT OBJECTS FROM {table} THROUGH RESULT "
            f"DURING {during[name]}",
        )
        granule = world(name)[4]
        cases[f"{name}/pietql/poi"] = pietql_case(
            name,
            f"EXPLAIN SELECT layer.Lp FROM {schema} "
            f"| TOP 3 FROM {table} AT layer.Lp BY {granule}",
        )
    return cases


CASES = build_cases()


def read_golden() -> Dict[str, str]:
    golden: Dict[str, str] = {}
    for block in GOLDEN.read_text().split("=== ")[1:]:
        name, _, text = block.partition("\n")
        golden[name] = text.rstrip("\n")
    return golden


def strip_actuals(line: str) -> str:
    """A node line without its actuals (and its parentheses, if the
    actuals were all they held)."""
    line = re.sub(r", actual_rows=\d+|, actual_s=\*", "", line)
    return re.sub(r"  \(actual_rows=\d+(, actual_s=\*)?\)$", "", line)


def rejected(line: str) -> List[tuple]:
    items = line.split("rejected: ", 1)[1].split(", ")
    return [(item.split("=")[0], float(item.split("=")[1])) for item in items]


def allowed(case: str, old: str, new: str) -> bool:
    """Whether one changed line is one of the two allowed differences."""
    if "/poi" not in case:
        return False
    if old.lstrip().startswith("rejected: "):
        before, after = rejected(old), rejected(new)
        return sorted(before) == sorted(after) and after == sorted(
            after, key=lambda item: item[1]
        )
    if not new.endswith(")") or "actual_rows=" not in new:
        return False
    # The shard count of a fan-out that ran: the shards it shipped.
    new = re.sub(r"x\d+ \+ merge", "x + merge", strip_actuals(new))
    return new == re.sub(r"x\d+ \+ merge", "x + merge", old)


def differences(case: str, old: str, new: str) -> List[str]:
    """The changed lines that are not allowed ones."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return [f"line count {len(old_lines)} -> {len(new_lines)}"]
    return [
        f"{a!r} -> {b!r}"
        for a, b in zip(old_lines, new_lines)
        if a != b and not allowed(case, a, b)
    ]


@pytest.fixture(scope="module")
def golden():
    return read_golden()


@pytest.fixture(scope="module")
def rendered():
    return {}


def text_of(rendered, case):
    if case not in rendered:
        rendered[case] = CASES[case]()
    return rendered[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_explain_matches_golden(golden, rendered, case):
    assert case in golden, f"{case} has no golden text"
    assert differences(case, golden[case], text_of(rendered, case)) == []


class TestAllowedDifferences:
    def test_every_golden_case_is_rendered(self, golden):
        assert sorted(golden) == sorted(CASES)

    def test_executed_poi_nodes_carry_actuals_and_shards_that_ran(
        self, golden, rendered
    ):
        # Figure 1's table holds 6 objects: 8 shards cut 6 non-empty.
        text = text_of(rendered, "fig1/poi/visits/sharded")
        planned, executed = text.split("\n--- executed\n")
        assert "ShardedSegmentScan[serial x8 + merge]" in planned
        assert "ShardedSegmentScan[serial x6 + merge]" in executed
        assert "ShardedSegmentScan[serial x8 + merge]" in golden[
            "fig1/poi/visits/sharded"
        ].split("\n--- executed\n")[1]
        for line in executed.splitlines()[1:]:
            if not line.lstrip().startswith("rejected:"):
                assert "actual_rows=" in line, line

    def test_poi_rejected_line_is_sorted_by_cost(self, golden, rendered):
        changed = [
            case for case in sorted(CASES) if "/poi" in case
            and golden[case].splitlines()[-1] != text_of(
                rendered, case
            ).splitlines()[-1]
            and "rejected:" in golden[case].splitlines()[-1]
        ]
        assert changed, "no POI rejected line was re-sorted"
        for case in changed:
            costs = [c for _, c in rejected(text_of(rendered, case).splitlines()[-1])]
            assert costs == sorted(costs)


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text("".join(
            f"=== {case}\n{CASES[case]()}\n" for case in sorted(CASES)
        ))
    else:
        for case in sys.argv[1:] or sorted(CASES):
            print(f"=== {case}\n{CASES[case]()}")
