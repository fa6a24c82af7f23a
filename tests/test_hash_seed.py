"""Every front-end prints the same output under any hash seed.

Answers break ties by ``repr`` (the payload, ``evaluate``, γ's keys),
never by the iteration order of a ``set`` of ids, which follows
``PYTHONHASHSEED``.  ``python -m repro demo`` and every script under
``examples/`` run under two hash seeds and must print the same text,
with the numbers of timing lines (``0.44 ms per query``) masked.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = [["-m", "repro", "demo"]] + [
    [str(path.relative_to(ROOT))] for path in sorted((ROOT / "examples").glob("*.py"))
]
TIMING = re.compile(r"\d+(?:\.\d+)?(?= ?(?:ms|us|s)\b)")
#: Piet-QL's ``AGGREGATE`` sums member values whose float sum depends
#: on the order they are folded in (0.1 + 0.2 + 0.3 + 0.7).
AGGREGATE_PROBE = """
from repro.gis import POLYGON
from repro.pietql import LayerBinding, run
from repro.synth import figure1_instance

world = figure1_instance()
incomes = {"berchem": 0.1, "centrum": 0.2, "noord": 0.3, "zuid": 0.7}
for name, income in incomes.items():
    world.gis.set_member_value("neighborhood", name, "income", income)
result = run(
    "SELECT layer.neighborhoods FROM S | AGGREGATE sum(income)",
    world.context(),
    {"neighborhoods": LayerBinding("Ln", POLYGON)},
)
print(repr(result.olap_result))
"""


def output(args, seed: int) -> str:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(seed),
        PYTHONPATH=os.pathsep.join(p for p in path if p),
    )
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=300, check=True,
    )
    return TIMING.sub("<t>", done.stdout)


def test_timings_are_masked():
    assert TIMING.sub("<t>", "overlay: 0.44 ms per query, 3 s, 12 us") == (
        "overlay: <t> ms per query, <t> s, <t> us"
    )
    assert TIMING.sub("<t>", "count: 5 buses") == "count: 5 buses"


@pytest.mark.parametrize("args", PROGRAMS, ids=lambda args: args[-1])
def test_same_output_under_two_hash_seeds(args):
    assert output(args, 1) == output(args, 2)


def test_pietql_aggregate_folds_in_one_order():
    # Seed 7 folds the four values in another order than seed 1 when
    # the members are taken in set order.
    probe = ["-c", AGGREGATE_PROBE]
    assert output(probe, 1) == output(probe, 7)
