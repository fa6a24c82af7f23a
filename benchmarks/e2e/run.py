"""The repo benchmark: five fixed workloads, end to end and layer by layer.

One workload, as the benchmark driver calls it::

    python3 benchmarks/e2e/run.py --workload cold_scan --seed 7 --seconds 10 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) by name and unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Without
``--workload`` the whole suite runs — each workload in a process of its
own, untraced ``--runs`` times and traced once — and the result JSON
that ``compare.py`` reads is written to ``--out``.

Names, units and bounds are declared once, in ``BENCHMARK.json`` at the
repository root; a run that emits a name the declaration lacks fails.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
DEFAULT_SEED = 20070415
SETUP_REPS = 3
SETUP_MIN_TOTAL_S = 1.5
SETUP_MAX_REPS = 12
SMOKE_SECONDS = 0.3
#: Units whose per-layer values are counts made by the program (or
#: ratios and sizes of such counts): they repeat exactly run to run.
EXACT_UNITS = ("count", "ratio", "B")


def declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: the suite)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny worlds, short phases")
    parser.add_argument("--runs", type=int, default=1, help="suite: untraced runs per workload, on seeds seed..seed+runs-1")
    parser.add_argument("--out", type=Path, help="suite: result JSON path")
    parser.add_argument("--detail", type=Path, help="one workload: write the full record here")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def reset_peak_rss() -> None:
    """Forget the memory that generating inputs and the oracle took.

    Freed heap goes back to the OS and the kernel's high-water mark is
    reset, so ``peak_rss_mb`` covers set-up and the measured rounds only
    and reads the same whether the world came from the cache or not.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # not Linux/glibc: the mark then includes generation


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        status = Path("/proc/self/status").read_text()
        own = int(status.split("VmHWM:")[1].split()[0])
    except (OSError, IndexError, ValueError):
        pass
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Executors join their own pool workers.  What is left is
    ``multiprocessing``'s resource tracker, started with the first
    semaphore or shared-memory block: it ends only once its parent's end
    of the pipe closes, which without this is after the parent has
    exited, so whoever watches the process table sees it outlive the run.
    Anything else still alive is killed.
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()  # closes the pipe, waits
    me = os.getpid()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # gone since the listing
        if ppid == me:
            pid = int(stat.parent.name)
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except OSError:
                pass  # ended, and reaped, in between


def measure_rounds(workload, seconds, tracer=None):
    """Whole rounds of the fixed op list until ``seconds`` have passed.

    Returns the rounds' times at nominal machine speed, their raw times,
    and every op result (latencies scaled like their round).
    """
    speed = workload.speed
    walls, raw, results = [], [], []
    started = time.perf_counter()
    while True:
        mark = len(speed.samples) if speed else 0
        wall, ops = workload.round(tracer)
        factor = speed.factor(mark) if speed else 1.0
        for op in ops:
            op.seconds *= factor
        walls.append(wall * factor)
        raw.append(wall)
        results.extend(ops)
        if time.perf_counter() - started >= seconds:
            return walls, raw, results


def timed_setup(workload) -> float:
    """One ``setup()``, bracketed by machine-speed samples."""
    speed = workload.speed
    mark = len(speed.samples) if speed else 0
    for _ in range(3 if speed else 0):
        speed.sample(force=True)
    started = time.perf_counter()
    workload.setup()
    seconds = time.perf_counter() - started
    for _ in range(3 if speed else 0):
        speed.sample(force=True)
    return seconds * (speed.factor(mark) if speed else 1.0)


def counts_since(workload, known):
    """Sum of the observers' deltas since the ``(observer, snapshot)``
    pairs in ``known`` were taken; observers that appeared since count
    from zero.  ``known`` holds the observers, which keeps ids unique."""
    before = {id(obs): snap for obs, snap in known}
    total = {}
    for obs in workload.observers():
        for key, value in obs.since(before.get(id(obs), {})).items():
            total[key] = total.get(key, 0) + value
    return total


def end_to_end(workload, args, record):
    # Cheap set-ups are repeated until they add up to something a clock
    # can resolve; the median is reported.
    enough_s = 0.0 if args.smoke else SETUP_MIN_TOTAL_S
    setups = [timed_setup(workload)]
    while len(setups) < SETUP_REPS or (
        sum(setups) < enough_s and len(setups) < SETUP_MAX_REPS
    ):
        workload.teardown()
        setups.append(timed_setup(workload))
    workload.round()  # untimed warm-up: caches filled, pools imported
    walls, raw, results = measure_rounds(workload, args.seconds)
    workload.teardown()
    record.update(
        setup_times_s=setups, round_walls_s=walls, round_raw_s=raw,
        op_metrics=workload.op_metrics(results, walls),
    )
    metrics = {
        "setup_s": statistics.median(setups),
        "round_ms": 1e3 * statistics.median(walls),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, results


def per_layer(workload, args, record):
    import spans as sp
    from workloads import sweep_shm

    workload.traced = True
    workload.setup()
    workload.round()
    walls, raw, untraced = measure_rounds(workload, args.seconds / 3)
    tracer = sp.Tracer()
    # Counts must repeat exactly, so they come from the first traced
    # round alone; timings average over every traced round.
    known = [(obs, obs.snapshot()) for obs in workload.observers()]
    traced_walls, _, traced = measure_rounds(workload, 0.0, tracer)
    counts = counts_since(workload, known)
    first_spans, first_ops = list(tracer.spans), len(traced)
    if traced_walls[0] < args.seconds / 3:
        more_walls, _, more = measure_rounds(
            workload, args.seconds / 3 - traced_walls[0], tracer
        )
        traced_walls += more_walls
        traced += more
    metrics = workload.layer_metrics(tracer.spans, first_spans, counts)
    metrics.update(workload.op_metrics(untraced, walls))
    workload.teardown()
    for strategy in ("serial", "grid", "sharded", "preagg"):
        metrics[f"planner.strategy.{strategy}"] = sum(
            s["attrs"].get(f"strategy.{strategy}", 0) for s in first_spans
        )
    coverage = sp.child_coverage(tracer.spans)
    metrics["bench.span_coverage"] = min(coverage.values())
    metrics["bench.trace_overhead_ratio"] = statistics.median(
        traced_walls
    ) / statistics.median(walls)
    metrics["bench.ops_traced"] = first_ops
    metrics["bench.round_raw_ms"] = 1e3 * statistics.median(raw)
    metrics["bench.machine_speed"] = (
        workload.speed.factor() if workload.speed else 1.0
    )
    metrics["parallel.shm_leaked"] = sweep_shm()
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace_{workload.name}.json"
    trace_path.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "self_seconds": sp.self_times(tracer.spans),
                "child_coverage": coverage,
                "spans": tracer.spans,
            }
        )
    )
    record.update(
        trace_file=str(trace_path.relative_to(ROOT)),
        round_walls_s=walls,
        traced_round_walls_s=traced_walls,
        span_coverage=coverage,
    )
    return metrics, untraced + traced


def environment() -> dict:
    import numpy

    from repro.geometry.kernels import kernel_backend

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernel_backend(),
        "git_sha": sha,
    }


def run_workload(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import worlds
    from machine import MachineSpeed, home_cpu
    from workloads import WORKLOADS, DegenerateWorld, sweep_shm

    declared = declaration()
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    scale = worlds.SMOKE if args.smoke else worlds.FULL
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else declared["run_seconds"]
    OUT_DIR.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix=f"tmp-{os.getpid()}-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, scale, tmp_root)
        cpu = home_cpu()
        if workload.pinned:
            os.sched_setaffinity(0, {cpu})
        if workload.cpu_bound:
            workload.speed = MachineSpeed(cpu)
        generation_s = workload.generate()
        started = time.perf_counter()
        try:
            workload.oracle()
        except DegenerateWorld as exc:
            print(f"error: degenerate world for seed {args.seed}: {exc}", file=sys.stderr)
            return 3
        oracle_s = time.perf_counter() - started
        reset_peak_rss()
        record = {
            "workload": args.workload, "seed": args.seed, "scale": scale.name,
            "seconds": args.seconds, "trace": args.trace,
            "generation_s": generation_s, "oracle_s": oracle_s,
            "reps_per_round": workload.reps(),
        }
        measure = per_layer if args.trace else end_to_end
        metrics, results = measure(workload, args, record)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        sweep_shm()
        stop_children()
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        print(f"error: metrics not declared in BENCHMARK.json: {unknown}", file=sys.stderr)
        return 2
    # A per-layer metric this workload's layers never touch reads 0;
    # what the workload did produce is kept, so that selftest.py can tell
    # a bypassed layer from a counter the program renamed or dropped.
    record["produced"] = sorted(name for name, value in metrics.items() if value)
    values = {name: float(metrics.get(name, 0.0)) for name in units}
    failed = sum(1 for r in results if not r.ok)
    print(f"# {args.workload}  seed={args.seed}  scale={scale.name}  "
          f"generation={generation_s:.2f}s  oracle={oracle_s:.2f}s  "
          f"ops={len(results)}  failed={failed}")
    busy = sum(r.seconds for r in results)
    for kind in dict.fromkeys(r.kind for r in results):
        ops = [r for r in results if r.kind == kind]
        print(f"#   {kind}: n={len(ops)}  failed={sum(not r.ok for r in ops)}  "
              f"share of the round={sum(r.seconds for r in ops) / busy:.1%}")
    for name, value in values.items():
        print(f"{name:34s} {value:16.6f} {units[name]}")
    # The client's view kind by kind, from the same untraced pass
    # (unbounded here; compare.py holds each to its bound).
    op_units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for name, value in record.get("op_metrics", {}).items():
        print(f"{name:34s} {value:16.6f} {op_units[name]}")
    summary = {
        "correct": failed == 0 and all(math.isfinite(v) for v in values.values()),
        "attempted": len(results),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }
    if args.detail is not None:
        record.update(summary, env=environment())
        args.detail.write_text(json.dumps(record))
    print(json.dumps(summary))
    return 0


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------


def summary_of(unit, values) -> dict:
    """Median and quartiles of one metric over the untraced runs."""
    q1, q3 = values[0], values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "unit": unit, "values": values,
        "median": statistics.median(values), "q1": q1, "q3": q3,
    }


def run_suite(args) -> int:
    declared = declaration()
    OUT_DIR.mkdir(exist_ok=True)
    out = args.out if args.out is not None else OUT_DIR / "result.json"
    result = {"schema": 1, "seed": args.seed, "runs": args.runs, "workloads": {}}
    suite_started = time.perf_counter()
    for spec in declared["workloads"]:
        name = spec["name"]
        details = []
        for trace, seed in [(0, args.seed + i) for i in range(args.runs)] + [(1, args.seed)]:
            detail = OUT_DIR / f"detail-{os.getpid()}.json"
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--trace", str(trace), "--detail", str(detail),
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print(f"error: {name} (trace {trace}) exited {done.returncode}", file=sys.stderr)
                return 1
            details.append(json.loads(detail.read_text()))
            detail.unlink()
        untraced, traced = details[:-1], details[-1]
        entry = {
            "why": spec["why"],
            "reps_per_round": traced["reps_per_round"],
            "attempted": sum(d["attempted"] for d in details),
            "failed": sum(d["failed"] for d in details),
            "span_coverage": traced["span_coverage"],
            "produced": traced["produced"],
            "end_to_end": {},
            "per_kind": {},
            "per_layer": {},
        }
        for metric in declared["end_to_end"]:
            entry["end_to_end"][metric["name"]] = summary_of(
                metric["unit"],
                [d["metrics"][metric["name"]]["value"] for d in untraced],
            )
        for metric in declared["per_layer"]:
            if metric["name"] in untraced[0]["op_metrics"]:
                entry["per_kind"][metric["name"]] = summary_of(
                    metric["unit"],
                    [d["op_metrics"][metric["name"]] for d in untraced],
                )
            entry["per_layer"][metric["name"]] = {
                "unit": metric["unit"],
                "value": traced["metrics"][metric["name"]]["value"],
                "exact": metric["unit"] in EXACT_UNITS,
            }
        result["workloads"][name] = entry
        result.setdefault("env", traced["env"])
        result.setdefault("scale", traced["scale"])
        result.setdefault("seconds", traced["seconds"])
    result["suite_wall_s"] = time.perf_counter() - suite_started
    out.write_text(json.dumps(result, indent=1, sort_keys=True))
    print_suite(result, declared)
    print(f"\nresult written to {out}")
    return 1 if any(w["failed"] for w in result["workloads"].values()) else 0


def print_suite(result, declared) -> None:
    names = list(result["workloads"])
    print(f"end-to-end (median of {result['runs']} run(s); seed {result['seed']}, "
          f"scale {result['scale']}, {result['seconds']} s measured per run)")
    print(f"{'metric':24s} {'unit':6s} " + " ".join(f"{n:>18s}" for n in names))
    for metric in declared["end_to_end"]:
        row = [result["workloads"][n]["end_to_end"][metric["name"]]["median"] for n in names]
        print(f"{metric['name']:24s} {metric['unit']:6s} " + " ".join(f"{v:18.4f}" for v in row))
    for metric in declared["per_layer"]:
        cells = [result["workloads"][n]["per_kind"].get(metric["name"]) for n in names]
        if any(cells):
            print(f"{metric['name']:24s} {metric['unit']:6s} " + " ".join(
                f"{c['median']:18.4f}" if c else f"{'-':>18s}" for c in cells))
    print(f"{'ops_attempted':24s} {'count':6s} " + " ".join(f"{result['workloads'][n]['attempted']:18d}" for n in names))
    print(f"{'ops_failed':24s} {'count':6s} " + " ".join(f"{result['workloads'][n]['failed']:18d}" for n in names))
    print("\nper-layer (one traced run; 0 = the workload bypasses the layer; * = exact count)")
    print(f"{'metric':34s} {'unit':6s} " + " ".join(f"{n:>18s}" for n in names))
    for metric in declared["per_layer"]:
        cells = [result["workloads"][n]["per_layer"][metric["name"]] for n in names]
        mark = "*" if cells[0]["exact"] else " "
        print(f"{metric['name'] + mark:34s} {metric['unit']:6s} " + " ".join(f"{c['value']:18.4f}" for c in cells))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is not None:
        return run_workload(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
