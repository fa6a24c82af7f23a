"""Smoke tests: every example script runs to completion.

Examples are user-facing documentation; a broken example is a broken
deliverable, so each one executes under captured stdout and its key output
lines are asserted.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    return capsys.readouterr().out


def test_all_examples_discovered():
    assert set(ALL_EXAMPLES) == {
        "quickstart.py",
        "traffic_analysis.py",
        "school_proximity.py",
        "pietql_tour.py",
        "moving_storm.py",
        "commuter_flows.py",
    }


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "1.3333" in out
    assert "Matches Remark 1" in out


def test_traffic_analysis(capsys):
    out = run_example("traffic_analysis.py", capsys)
    assert "Same via Piet-QL" in out
    assert "Strategy overlay" in out


def test_school_proximity(capsys):
    out = run_example("school_proximity.py", capsys)
    assert "missed by sampling only" in out
    assert "Lifeline beads" in out


def test_pietql_tour(capsys):
    out = run_example("pietql_tour.py", capsys)
    assert "usa_cities" in out
    assert "count: 5" in out


def test_moving_storm(capsys):
    out = run_example("moving_storm.py", capsys)
    assert "Samples caught in the storm" in out
    assert "moving region caught" in out


def test_commuter_flows(capsys):
    out = run_example("commuter_flows.py", capsys)
    assert "Hottest cells" in out
    assert "Aggregated trajectory" in out


def test_module_entry_point(capsys, monkeypatch):
    """``python -m repro`` renders Figure 1 and the Remark 1 answer.
    The entry point runs as ``python -m repro`` runs it: not yet
    imported (other tests import ``repro.__main__``, and ``runpy``
    warns when rerunning an imported module)."""
    monkeypatch.setattr(sys, "argv", ["repro"])
    monkeypatch.delitem(sys.modules, "repro.__main__", raising=False)
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_module("repro", run_name="__main__")
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "1.3333" in out
    assert "#" in out  # the shaded low-income region
