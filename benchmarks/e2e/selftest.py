"""Self-test of the benchmark harness (no pytest needed).

    python3 benchmarks/e2e/selftest.py

Runs the smoke suite twice on the same seed and asserts that

1. the workload and metric names emitted equal the names declared in
   ``BENCHMARK.json`` (end-to-end and per-layer),
2. every per-layer metric comes out non-zero on the workload the README
   maps it to (``HOME``), before the runner fills the metrics a workload
   did not produce with 0 — so a counter the program renamed or dropped
   fails here instead of reading "bypassed" forever; the few counters
   that read 0 on a healthy run are listed in ``QUIET``,
3. the layers stay apart (``APART``: no store hit without a store, no
   shared-memory block outside ``sharded_fanout``, ...),
4. every name matches ``[A-Za-z0-9_.-]+``,
5. every count flagged ``"exact": true`` is identical in the two runs,
6. no op failed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Metric-name prefix -> the workload that must produce it; the longest
#: matching prefix decides.
HOME = {
    "op.": "cold_scan",
    "op.store_build_s": "sharded_fanout",
    "op.job": "service_jobs",
    "op.ingest": "ingest_interleaved",
    "op.submit": "ingest_interleaved",
    "op.snapshot": "ingest_interleaved",
    "storage.": "cold_scan",
    "pietql.": "cold_scan",
    "planner.": "cold_scan",
    "planner.strategy.sharded": "sharded_fanout",
    "planner.strategy.preagg": "warm_preagg",
    "evaluator.": "cold_scan",
    # Caches are filled before the traced round everywhere else.
    "evaluator.index_build_s": "ingest_interleaved",
    "kernels.": "cold_scan",
    # The store build clips; the dwell fold and the scan do not.
    "kernels.clip_": "sharded_fanout",
    "poi.": "cold_scan",
    "preagg.": "warm_preagg",
    "preagg.update_ms": "ingest_interleaved",
    "preagg.clone_ms": "ingest_interleaved",
    "poistore.": "warm_preagg",
    "parallel.": "sharded_fanout",
    "ingest.": "ingest_interleaved",
    "service.": "service_jobs",
    "bench.": "cold_scan",
}
#: Counts that are 0 on every workload of a healthy run, and why.
QUIET = {
    "preagg.misses": "no workload asks a registered store what it cannot serve",
    "preagg.sliver_scan_rows": "planned through-counts count into a private "
                               "EvaluationStats (README, known blind spot)",
    "parallel.shm_fallbacks": "every object id is encodable",
    "parallel.task_retries": "no fault plan, no retry policy",
    "parallel.shm_leaked": "every fan-out unlinks its block",
    "service.jobs_requeued": "no job fails",
}
#: (metric, workload) pairs that must stay 0: the layer is bypassed.
APART = [
    ("preagg.hits", "cold_scan"),
    ("poistore.hits", "cold_scan"),
    ("evaluator.scan_rows_aligned", "warm_preagg"),
    ("poi.stop_episodes", "warm_preagg"),
    ("parallel.shm_blocks", "cold_scan"),
    ("parallel.shm_blocks", "warm_preagg"),
    ("parallel.shm_blocks", "service_jobs"),
    ("parallel.shm_blocks", "ingest_interleaved"),
    ("service.run_ms", "cold_scan"),
    ("ingest.flushes", "warm_preagg"),
]


def home(metric: str) -> str:
    return HOME[max((p for p in HOME if metric.startswith(p)), key=len)]


def smoke(out: Path) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        check=True, stdout=subprocess.DEVNULL,
    )
    return json.loads(out.read_text())


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    (HERE / "out").mkdir(exist_ok=True)
    first = smoke(HERE / "out" / "selftest_1.json")
    second = smoke(HERE / "out" / "selftest_2.json")
    problems = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    want_workloads = [w["name"] for w in declared["workloads"]]
    expect(sorted(first["workloads"]) == sorted(want_workloads),
           f"workloads emitted {sorted(first['workloads'])} != declared {sorted(want_workloads)}")
    for section in ("end_to_end", "per_layer"):
        want = {m["name"] for m in declared[section]}
        for name, entry in first["workloads"].items():
            got = set(entry[section])
            expect(got == want, f"{name}: {section} names differ: "
                   f"missing {sorted(want - got)}, extra {sorted(got - want)}")
    for metric in (m["name"] for m in declared["per_layer"]):
        makers = [w for w in want_workloads if metric in first["workloads"][w]["produced"]]
        if metric in QUIET:
            expect(not makers, f"{metric} is listed as quiet but {makers} produced it")
        else:
            expect(home(metric) in makers,
                   f"{metric}: not produced by {home(metric)} (produced by {makers})")
    for metric, workload in APART:
        expect(metric not in first["workloads"][workload]["produced"],
               f"{workload} bypasses the layer, yet produced {metric}")
    names = want_workloads + [
        m["name"] for s in ("end_to_end", "per_layer") for m in declared[s]
    ]
    for name in names:
        expect(NAME.fullmatch(name) is not None, f"bad name {name!r}")
    expect(len(set(names)) == len(names), "a name is used twice")
    exact = 0
    for name in want_workloads:
        a, b = first["workloads"][name], second["workloads"][name]
        expect(a["failed"] == 0 and b["failed"] == 0, f"{name}: failed ops")
        for metric, cell in a["per_layer"].items():
            if cell["exact"]:
                exact += 1
                other = b["per_layer"][metric]["value"]
                expect(cell["value"] == other,
                       f"{name}: exact {metric} differs: {cell['value']} vs {other}")
    for problem in problems:
        print("FAIL", problem)
    print(f"selftest: {len(names)} names, {exact} exact counts compared over "
          f"two smoke runs, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
