"""The runtime's third-party footprint is what ``pyproject.toml`` declares.

A fresh interpreter imports the query, service, parallel, Piet-QL,
ingest, pre-aggregation and POI stacks; every top-level package those
imports load from an installation's site-packages must be a declared
dependency, and every declared dependency must be loaded.  A heavy
import brought back into ``src/`` fails here by name.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

STACK = (
    "repro.query", "repro.service", "repro.parallel", "repro.pietql",
    "repro.ingest", "repro.preagg", "repro.poi",
)

# Modules loaded at interpreter start (``.pth`` hooks) are not the
# stack's: only what its imports add is looked at.
PROBE = f"""
import json, os, site, sys, sysconfig
before = set(sys.modules)
for name in {STACK!r}:
    __import__(name)
paths = sysconfig.get_paths()
roots = tuple(
    os.path.realpath(p) + os.sep
    for p in {{paths["purelib"], paths["platlib"], site.getusersitepackages()}}
)
found = set()
for name in set(sys.modules) - before:
    path = getattr(sys.modules[name], "__file__", None)
    if path and os.path.realpath(path).startswith(roots):
        found.add(name.partition(".")[0])
found.discard("repro")
print(json.dumps(sorted(found)))
"""


def declared_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    listed = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    return set(re.findall(r'"([A-Za-z0-9_.-]+)', listed))


def test_stack_loads_only_the_declared_dependencies():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert set(json.loads(out.stdout)) == declared_dependencies() == {"numpy"}
