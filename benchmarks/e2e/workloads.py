"""The five fixed workloads of the repo benchmark.

Each workload is a closed loop over a fixed op list (one *round*),
driven by one client except ``service_jobs`` (two client threads, the
machine's ``nproc``).  A workload knows how to

* ``generate()`` its inputs from the seed (benchmark cost, untimed),
* compute the ``oracle()`` answers by the simplest path (serial
  backend, no store, ``use_preagg=False``) and refuse a degenerate world,
* ``setup()`` the system under test (timed by the caller as ``setup_s``),
* run one ``round()`` — undecomposed public calls when untraced, the
  decomposed calls of each layer inside spans when traced,
* turn a traced pass into its ``layer_metrics()``.

Answers are compared outside the timed region; a wrong answer, an
exception or a timeout is a failed op: the time the client waited for it
stays in the round, and its kind's median latency goes without it.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import shutil
import statistics
import tempfile
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import spans as sp
import worlds
from repro.geometry import kernels
from repro.gis import POI, POLYGON
from repro.ingest import IngestConfig, StoreSpec, StreamingIngestor
from repro.mo.moft import MOFT
from repro.mo.trajectory import LinearInterpolationTrajectory
from repro.obs import EvaluationStats, PipelineStats
from repro.parallel import ShardedExecutor, ShardedPietQLExecutor
from repro.parallel.shm import BLOCK_PREFIX, leaked_segments
from repro.pietql import PietQLExecutor, parse
from repro.poi import PoiVisitStore, segment_stops_moves
from repro.preagg import PreAggStore
from repro.query.aggregate import total_dwell_time
from repro.query.evaluator import count_objects_through, geometric_subquery
from repro.query.planner import (
    execute_plan,
    execute_poi_plan,
    plan_count_objects_through,
    plan_poi_aggregate,
)
from repro.query.poi import poi_topk
from repro.query.region import EvaluationContext
from repro.service import QueryService, QuerySpec, load_world
from repro.service.queue import SQLiteJobQueue
from repro.service.spec import canonical_json, result_payload
from repro.service.worker import execute_spec
from repro.service.worlds import SYNTH_BINDINGS, ServiceWorld

TARGET = ("Ln", POLYGON)
CONSTRAINTS = (("contains", ("Ls", "node")),)
#: Day 2 whole plus a 14-instant sliver of day 1: a registered day store
#: answers the covered granule and the sliver is scanned (hybrid path).
WINDOW_UNALIGNED = (10.0, 47.0)
#: Exactly the instants of the second day granule.
WINDOW_DAY2 = (24.0, 47.0)
TOP_K = 3

FIG1_SPEC = QuerySpec.through(
    TARGET,
    [("intersects", ("Lr", "polyline")), ("contains", ("Ls", "node"))],
    moft_name="FMbus",
)
FIG1_TEXT = (
    "SELECT layer.neighborhoods FROM Fig1 "
    "WHERE intersection(layer.neighborhoods, layer.rivers) "
    "| COUNT OBJECTS FROM FMbus THROUGH RESULT"
)
JOB_TIMEOUT_S = 30.0
#: Client think time before each submit: a golden-ratio sequence over one
#: worker poll period (20 ms).  Without it a closed-loop client locks
#: onto the phase of the worker's idle poll, and the whole run's job
#: latency lands on either ~21 ms or ~31 ms depending on how the threads
#: happened to start; spreading arrivals evenly over the poll period
#: makes every run sample the same latency mixture.
THINK_PERIOD_S = 0.020
GOLDEN = 0.6180339887498949


class DegenerateWorld(Exception):
    """The generated world makes an op trivial (early-exit everywhere)."""


@dataclass
class OpResult:
    kind: str
    seconds: float
    ok: bool


def run_op(kind, call, check, results, tracer=None, observers=(), speed=None):
    """Time one op; check its answer after the clock has stopped."""
    if speed is not None:
        speed.sample()
    started = time.perf_counter()
    try:
        if tracer is None:
            out = call(None)
        else:
            with tracer.op(kind, observers):
                out = call(tracer)
    except Exception:  # an op may fail in any way; the run must go on
        traceback.print_exc()
        results.append(OpResult(kind, time.perf_counter() - started, False))
        return None
    seconds = time.perf_counter() - started
    results.append(OpResult(kind, seconds, bool(check(out))))
    return out


def spanned(tracer, name: str):
    """A span when tracing, nothing otherwise: for ops whose traced and
    untraced forms make the same calls."""
    return tracer.span(name) if tracer is not None else nullcontext()


def busy_seconds(results) -> float:
    """A one-client closed loop's round time: the sum of its latencies,
    failed ops included, so that a broken op cannot shorten the round
    (answer checks and speed samples sit between the ops, untimed)."""
    return sum(r.seconds for r in results)


def interleave(reps: Dict[str, int]) -> List[str]:
    """The fixed op list of one round: ``reps[kind]`` ops of each kind,
    each kind spread evenly over the round."""
    slots = [
        ((i + 0.5) / n, kind) for kind, n in reps.items() for i in range(n)
    ]
    return [kind for _, kind in sorted(slots)]


def same_json(expected: str) -> Callable[[str], bool]:
    return lambda out: out == expected


def same_dwell(expected: str) -> Callable[[str], bool]:
    """Dwell sums floats in a strategy-dependent order: rel-tol 1e-9."""
    want = json.loads(expected)["seconds"]
    return lambda out: math.isclose(
        json.loads(out)["seconds"], want, rel_tol=1e-9, abs_tol=1e-12
    )


def topk_json(result) -> str:
    return canonical_json(
        {
            "kind": "poi_topk",
            "top": [
                [str(member), [[str(poi), int(n)] for poi, n in ranked]]
                for member, ranked in sorted(result.items(), key=repr)
            ],
        }
    )


def dwell_json(seconds: float) -> str:
    return canonical_json({"kind": "dwell", "seconds": float(seconds)})


def per_call(fn: Callable[[], object], budget_s: float = 0.2, least: int = 3) -> float:
    """Mean seconds of one direct call, repeated for about ``budget_s``."""
    n, started = 0, time.perf_counter()
    while True:
        fn()
        n += 1
        elapsed = time.perf_counter() - started
        if n >= least and elapsed >= budget_s:
            return elapsed / n


def plan_scan_rows(plan) -> int:
    """Rows a planned through-count scanned, read off the plan's actuals.

    ``execute_plan`` counts into a private ``EvaluationStats``, so the
    context observer never sees these rows; the executed plan tree is
    the only outside view of them.
    """
    return sum(
        node.actual_rows or 0
        for node in plan.root.walk()
        if node.op in ("SerialScan", "GridScan", "SliverScan")
    )


def mean_ms(values: List[float]) -> float:
    return 1e3 * statistics.fmean(values) if values else 0.0


def p50_ms(results: List[OpResult], kind: str) -> float:
    values = [r.seconds for r in results if r.kind == kind and r.ok]
    return 1e3 * statistics.median(values) if values else 0.0


def query_span_metrics(trace) -> Dict[str, float]:
    """Parse/plan/execute timings of the traced through and Piet-QL ops."""
    return {
        "pietql.parse_us": 1e3 * mean_ms(sp.durations(trace, "parse")),
        "pietql.execute_ms": mean_ms(sp.durations(trace, "execute", "pietql")),
        "planner.plan_ms": mean_ms(sp.durations(trace, "plan", "through")),
        "planner.execute_ms": mean_ms(sp.durations(trace, "execute", "through")),
    }


#: Per-layer figures that are plain observer deltas of one round:
#: metric -> (observer key, scale).
COUNTER_METRICS = {
    "evaluator.scan_rows": ("scan_rows", 1),
    "evaluator.segment_checks": ("segment_checks", 1),
    "evaluator.bbox_rejections": ("bbox_rejections", 1),
    "evaluator.objects_scanned": ("objects_scanned", 1),
    "evaluator.objects_matched": ("objects_matched", 1),
    "evaluator.segment_scan_s": ("segment_scan_seconds", 1),
    "evaluator.index_build_s": ("index_build_seconds", 1),
    "kernels.clip_segments": ("clip_kernel_segments", 1),
    "kernels.disc_segments": ("disc_kernel_segments", 1),
    "poi.stop_episodes": ("stop_episodes", 1),
    "poi.visits": ("poi_visits", 1),
    "preagg.hits": ("preagg_hits", 1),
    "preagg.misses": ("preagg_misses", 1),
    "preagg.sliver_scan_rows": ("sliver_scan_rows", 1),
    "poistore.hits": ("poi_preagg_hits", 1),
    "parallel.fanout_s": ("shard_fanout_seconds", 1),
    "parallel.shard_scan_s": ("shard_scan_seconds", 1),
    "parallel.merge_ms": ("merge_seconds", 1e3),
    "parallel.shm_blocks": ("zero_copy_blocks", 1),
    "parallel.shm_fallbacks": ("zero_copy_fallbacks", 1),
    # In kB and not exact: each payload names its shared-memory block,
    # and the name holds the pid, a digit longer in some runs.
    "parallel.payload_bytes": ("bytes_serialized", 1e-3),
    "parallel.task_retries": ("task_retries", 1),
    "ingest.fold_s": ("ingest_fold_seconds", 1),
    "ingest.compaction_s": ("compaction_seconds", 1),
    "ingest.flushes": ("ingest_flushes", 1),
    "ingest.compactions": ("compactions", 1),
    "ingest.samples_late": ("samples_late", 1),
    "service.jobs_requeued": ("jobs_requeued", 1),
}
#: metric -> (numerator key, denominator keys).
RATIO_METRICS = {
    "evaluator.rows_per_result": ("scan_rows", ("objects_matched",)),
    "kernels.clip_fallback_ratio": ("clip_kernel_fallback", ("clip_kernel_segments",)),
    "preagg.hit_ratio": ("preagg_hits", ("preagg_hits", "preagg_misses")),
    "ingest.late_ratio": ("samples_late", ("samples_submitted",)),
}


def counter_metrics(counts: Dict[str, float]) -> Dict[str, float]:
    """The per-layer figures whose counters moved in the round
    (``PipelineStats.since`` reports only what changed)."""
    metrics = {
        name: scale * counts[key]
        for name, (key, scale) in COUNTER_METRICS.items()
        if key in counts
    }
    for name, (top, bottom) in RATIO_METRICS.items():
        total = sum(counts.get(key, 0) for key in bottom)
        if total:
            metrics[name] = counts.get(top, 0) / total
    return metrics


class Workload:
    """Common plumbing; subclasses fill in the five hooks."""

    name = ""
    #: False when waiting (sleeps, polls), not computing, sets the pace:
    #: such timings are not scaled by the machine-speed sampler.
    cpu_bound = True
    #: The run is pinned to one core: one client on one thread, or (the
    #: service) client and worker threads that take turns on the
    #: interpreter lock anyway, and whose round time ranges twice as wide
    #: from run to run when the scheduler moves them between the two
    #: unlike cores.
    pinned = True

    def __init__(self, seed: int, scale: worlds.Scale, tmp_root: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.tmp_root = tmp_root
        self.expected: Dict[str, str] = {}
        #: Set by the runner before ``setup()`` of the traced run.
        self.traced = False
        #: The runner's machine-speed sampler (None: timings stay raw).
        self.speed = None
        #: Direct-call timings taken while setting up.
        self.setup_probe: Dict[str, float] = {}

    def generate(self) -> float:
        self.inputs = worlds.city_world(self.seed, self.scale)
        return self.inputs.generation_s

    def oracle(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def round(self, tracer: Optional[sp.Tracer] = None) -> Tuple[float, List[OpResult]]:
        raise NotImplementedError

    def observers(self) -> List[PipelineStats]:
        """Observers whose deltas over one round give the exact counts."""
        return []

    def layer_metrics(self, trace, first_round, counts) -> Dict[str, float]:
        raise NotImplementedError

    def op_metrics(self, results: List[OpResult], walls: List[float]) -> Dict[str, float]:
        """What a client of this workload waits on, kind by kind: the
        ``op.*`` figures, from the op results and round times of an
        untraced pass."""
        raise NotImplementedError

    #: The fixed op list of one round, for workloads that loop over one.
    mix: List[str] = []

    def reps(self) -> Dict[str, int]:
        """Ops of each kind in one round."""
        return {kind: self.mix.count(kind) for kind in sorted(set(self.mix))}


# ---------------------------------------------------------------------------
# cold_scan / warm_preagg: the same five query kinds, without and with stores
# ---------------------------------------------------------------------------


def open_city(inputs: worlds.CityWorld):
    """File open -> GIS -> tables -> context: what an operator starts."""
    city, pois = worlds.build_map()
    fm = MOFT.load(inputs.fm_path)
    fmpoi = MOFT.load(inputs.poi_path)
    time_dim = worlds.time_dimension(inputs.scale.n_instants)
    context = EvaluationContext(city.gis, time_dim, {"FM": fm, "FMpoi": fmpoi})
    return city, pois, context


def pietql_text(context: EvaluationContext) -> str:
    day2 = context.time.granules("day").members[1]
    return (
        "SELECT layer.neighborhoods FROM City "
        "WHERE contains(layer.neighborhoods, layer.schools) "
        f"| COUNT OBJECTS FROM FM THROUGH RESULT DURING day = '{day2}'"
    )


def check_share(kind: str, count: float, n_objects: int) -> None:
    """The non-degeneracy gate: strictly between 10 % and 90 % match."""
    if not 0.1 * n_objects < count < 0.9 * n_objects:
        raise DegenerateWorld(
            f"{kind} matches {count:g} of {n_objects} objects; the scan "
            "would early-exit (or never match) and measure nothing"
        )


def oracle_through(context, n_objects: int, kind: str, window=None) -> str:
    count = count_objects_through(
        context, TARGET, list(CONSTRAINTS), window=window, use_preagg=False
    )
    check_share(kind, count, n_objects)
    return canonical_json(result_payload("through", count))


def oracle_pietql(context, n_objects: int) -> str:
    result = PietQLExecutor(context, SYNTH_BINDINGS).execute(pietql_text(context))
    check_share("pietql", result.count, n_objects)
    return canonical_json(result_payload("pietql", result))


def city_oracle(inputs: worlds.CityWorld) -> Dict[str, str]:
    """Every city op by the simplest path, plus the non-degeneracy gate."""
    _, _, context = open_city(inputs)
    n_objects = inputs.scale.n_objects
    top = poi_topk(context, "Lp", "day", TOP_K, moft_name="FMpoi", strategy="serial")
    if not top or not all(top.values()):
        raise DegenerateWorld("top-k over the POI layer is empty")
    return {
        "through": oracle_through(context, n_objects, "through"),
        "through_window": oracle_through(
            context, n_objects, "through_window", WINDOW_UNALIGNED
        ),
        "pietql": oracle_pietql(context, n_objects),
        "dwell": dwell_json(
            total_dwell_time(
                context, TARGET, list(CONSTRAINTS), window=WINDOW_DAY2,
                use_preagg=False,
            )
        ),
        "poi_topk": topk_json(top),
    }


def kernel_probes(context: EvaluationContext, n_segments: int) -> Dict[str, float]:
    """Direct calls into the clip kernels over the world's own segments."""
    fm = context.moft("FM")
    t, x, y = fm.as_arrays()
    oids = np.asarray(fm.oid_column())
    order = np.lexsort((t, oids))
    t, x, y, oids = t[order], x[order], y[order], oids[order]
    same = oids[1:] == oids[:-1]
    x0, y0, x1, y1 = x[:-1][same], y[:-1][same], x[1:][same], y[1:][same]
    dt = (t[1:] - t[:-1])[same]
    pick = slice(0, n_segments)
    x0, y0, x1, y1, dt = x0[pick], y0[pick], x1[pick], y1[pick], dt[pick]
    ids = sorted(geometric_subquery(context, TARGET, list(CONSTRAINTS)), key=repr)
    polygons = [context.gis.layer("Ln").elements(POLYGON)[gid] for gid in ids]
    discs = list(context.gis.layer("Lp").elements(POI).values())[: len(polygons)]
    work = len(x0) * len(polygons)

    def clip():
        for polygon in polygons:
            kernels.clip_segments_batch(polygon, x0, y0, x1, y1)

    def dwell():
        for polygon in polygons:
            kernels.segments_dwell(polygon, x0, y0, x1, y1, dt)

    def disc():
        for poi in discs:
            kernels.disc_clip_batch(
                poi.center.x, poi.center.y, poi.radius, x0, y0, x1, y1
            )

    return {
        "kernels.clip_ns_per_segment": 1e9 * per_call(clip, 0.15, 1) / work,
        "kernels.dwell_ns_per_segment": 1e9 * per_call(dwell, 0.15, 1) / work,
        "kernels.disc_ns_per_segment": 1e9 * per_call(disc, 0.15, 1) / work,
    }


class CityQueries(Workload):
    """``cold_scan`` (no store, scan layers do the work) and
    ``warm_preagg`` (day-granule stores registered in set-up)."""

    def __init__(self, name, seed, scale, tmp_root) -> None:
        super().__init__(seed, scale, tmp_root)
        self.name = name
        self.warm = name == "warm_preagg"
        # ``round_ms`` is the one bounded latency figure, so the reps give
        # every kind a like share of the round (see README): a kind that
        # slows down then moves the round by about a fifth of its own loss.
        if self.warm:
            # 0.5 ms / 1.5 ms / 6 ms / 22 ms cell reads against a sliver
            # scan of ~0.18 s.
            reps = {"dwell": 375, "through": 120, "pietql": 32, "poi_topk": 8,
                    "through_window": 1}
        else:
            # ~0.15 s scans against ~1.5 s dwell folds and segmentations;
            # the issue's 30:30:30:6:5.
            reps = {"through": 6, "through_window": 6, "pietql": 6, "dwell": 1,
                    "poi_topk": 1}
        self.mix = interleave(reps)

    def oracle(self) -> None:
        self.expected = city_oracle(self.inputs)

    def setup(self) -> None:
        self.city, self.pois, self.context = open_city(self.inputs)
        self.world = ServiceWorld(self.name, self.context, dict(SYNTH_BINDINGS))
        self.text = pietql_text(self.context)
        self.specs = {
            "through": QuerySpec.through(TARGET, CONSTRAINTS),
            "through_window": QuerySpec.through(
                TARGET, CONSTRAINTS, window=WINDOW_UNALIGNED
            ),
            "pietql": QuerySpec.pietql(self.text),
        }
        if self.warm:
            started = time.perf_counter()
            self.store = PreAggStore(
                self.context.moft("FM"),
                self.context.time,
                "day",
                self.city.gis.layer("Ln").elements(POLYGON),
                layer="Ln",
                kind=POLYGON,
                obs=self.context.obs,
            )
            self.context.register_preagg(self.store)
            built = time.perf_counter()
            self.poi_store = PoiVisitStore(
                self.context.moft("FMpoi"),
                self.context.time,
                "day",
                self.pois,
                layer="Lp",
                obs=self.context.obs,
            )
            self.context.register_preagg(self.poi_store)
            self.setup_probe["preagg.build_s"] = built - started
            self.setup_probe["poistore.build_s"] = time.perf_counter() - built
        # Time to first answer: fills the overlay, grid-index and _order
        # caches every later query of the kind reuses.
        started = time.perf_counter()
        self._through("through", None)
        self.setup_probe["storage.first_through_ms"] = 1e3 * (
            time.perf_counter() - started
        )
        self._pietql(None)

    def observers(self):
        return [self.context.obs]

    # -- the five op kinds ---------------------------------------------------

    def _through(self, kind, tr):
        spec = self.specs[kind]
        if tr is None:
            return execute_spec(spec, self.world)[0]
        context = self.world.query_context()
        executor = ShardedExecutor(backend="serial", obs=context.obs)
        args = (context, spec.target, list(spec.constraints))
        options = dict(moft_name=spec.moft_name, window=spec.window, executor=executor)
        with tr.span("plan") as record:
            plan = plan_count_objects_through(*args, **options)
            record["attrs"][f"strategy.{plan.strategy}"] = 1
        with tr.span("execute") as record:
            count = execute_plan(plan, *args, **options)
            record["attrs"]["scan_rows"] = plan_scan_rows(plan)
        with tr.span("serialize"):
            plan.render()
            return canonical_json(result_payload("through", count))

    def _pietql(self, tr):
        if tr is None:
            return execute_spec(self.specs["pietql"], self.world)[0]
        context = self.world.query_context()
        executor = ShardedExecutor(backend="serial", obs=context.obs)
        with tr.span("parse"):
            query = parse(self.text)
        # The executor counts its scan into the context observer; the
        # span takes the delta, as the planned ops take plan actuals.
        with tr.span("execute", (context.obs,)):
            result = ShardedPietQLExecutor(
                context, self.world.bindings, sharded=executor
            ).execute(query)
        with tr.span("serialize"):
            return canonical_json(result_payload("pietql", result))

    def _dwell(self, tr):
        args = (self.context, TARGET, list(CONSTRAINTS))
        if tr is None:
            return dwell_json(total_dwell_time(*args, window=WINDOW_DAY2))
        with tr.span("geometric_subquery"):
            geometric_subquery(*args)
        with tr.span("total_dwell_time"):
            seconds = total_dwell_time(*args, window=WINDOW_DAY2)
        with tr.span("serialize"):
            return dwell_json(seconds)

    def _poi_topk(self, tr):
        options = dict(moft_name="FMpoi", measure="topk", k=TOP_K)
        # cold_scan pins the segmentation pass to the calling thread, so
        # a planner change cannot move it; warm_preagg lets the planner
        # find the registered store.
        force = None if self.warm else "serial"
        with spanned(tr, "plan_poi_aggregate") as record:
            plan = plan_poi_aggregate(
                self.context, "Lp", "day", force_strategy=force, **options
            )
            if record is not None:
                record["attrs"][f"strategy.{plan.strategy}"] = 1
        with spanned(tr, "execute_poi_plan"):
            result = execute_poi_plan(plan, self.context, "Lp", "day", **options)
        with spanned(tr, "serialize"):
            return topk_json(result)

    def round(self, tracer=None):
        calls = {
            "through": lambda tr: self._through("through", tr),
            "through_window": lambda tr: self._through("through_window", tr),
            "pietql": self._pietql,
            "dwell": self._dwell,
            "poi_topk": self._poi_topk,
        }
        results: List[OpResult] = []
        for kind in self.mix:
            check = same_dwell if kind == "dwell" else same_json
            run_op(
                kind, calls[kind], check(self.expected[kind]), results,
                tracer, self.observers(), self.speed,
            )
        return busy_seconds(results), results

    # -- per-layer -----------------------------------------------------------

    def op_metrics(self, results, walls):
        return {f"op.{kind}_p50_ms": p50_ms(results, kind) for kind in self.reps()}

    def layer_metrics(self, trace, first_round, counts):
        context = self.context
        metrics = counter_metrics(counts)
        metrics.update(self.setup_probe)
        metrics.update(query_span_metrics(trace))
        metrics["evaluator.geosub_us"] = 1e6 * per_call(
            lambda: geometric_subquery(context, TARGET, list(CONSTRAINTS)), 0.05
        )
        # Rows handed to trajectory scans, from one place only: the
        # ``execute`` span of each counting op (plan actuals, or the
        # Piet-QL executor's observer delta).  The op-root spans carry
        # observer deltas too and are left out, so rows the program later
        # routes to the context observer are not counted twice.
        counting = ("through", "through_window", "pietql")
        rows = sp.attr_total(first_round, "scan_rows", name="execute")
        answered = sum(
            self.mix.count(kind) * json.loads(self.expected[kind])["count"]
            for kind in counting
        )
        metrics["evaluator.scan_rows"] = rows
        metrics["evaluator.rows_per_result"] = rows / answered
        metrics["evaluator.scan_rows_aligned"] = sp.attr_total(
            first_round, "scan_rows", ("through", "pietql"), name="execute"
        )
        metrics.update(kernel_probes(context, self.scale.probe_segments))
        metrics.update(self._storage_probe())
        fmpoi = context.moft("FMpoi")
        sample = sorted(fmpoi.objects())[:100]
        metrics["poi.segment_us_per_object"] = 1e6 * per_call(
            lambda: [
                segment_stops_moves(
                    LinearInterpolationTrajectory(fmpoi.trajectory_sample(oid)),
                    self.pois,
                )
                for oid in sample
            ],
            0.1,
            1,
        ) / len(sample)
        if self.warm:
            ids = sorted(geometric_subquery(context, TARGET, list(CONSTRAINTS)), key=repr)
            last = len(self.store.partition) - 1

            def lookups():
                self.store.objects_through(ids, 0, last)
                self.store.dwell_time(ids, 0, last)
                self.store.window_dwell(ids, *WINDOW_DAY2)

            metrics["preagg.lookup_us"] = 1e6 * per_call(lookups, 0.05) / 3
            stats = self.store.stats()
            metrics["preagg.cells"] = stats.granules * stats.geometries
            metrics["preagg.bytes"] = len(pickle.dumps(self.store, pickle.HIGHEST_PROTOCOL))
            metrics["poistore.topk_ms"] = 1e3 * per_call(
                lambda: self.poi_store.topk(TOP_K), 0.05
            )
        return metrics

    def _storage_probe(self):
        fm = self.context.moft("FM")
        path = self.tmp_root / "probe.moft"
        started = time.perf_counter()
        fm.save(path)
        save_s = time.perf_counter() - started
        load_s = per_call(lambda: MOFT.load(path), 0.05)
        return {
            "storage.save_s": save_s,
            "storage.load_ms": 1e3 * load_s,
            "storage.bytes_per_row": path.stat().st_size / len(fm),
        }


# ---------------------------------------------------------------------------
# sharded_fanout: repro.parallel does the work the other workloads bypass
# ---------------------------------------------------------------------------


def store_fingerprint(store: PreAggStore) -> dict:
    """What a reader can get out of a store, over the whole table."""
    last = len(store.partition) - 1
    return {
        "through": {
            str(gid): len(store.objects_through([gid], 0, last))
            for gid in store.gids
        },
        "samples": store.sample_count(store.gids, 0, last),
        "dwell": store.dwell_time(store.gids, 0, last),
    }


def same_store(expected: dict) -> Callable[[PreAggStore], bool]:
    """Counts equal; dwell at rel-tol 1e-9 (shard merge reorders sums)."""

    def check(store: PreAggStore) -> bool:
        got = store_fingerprint(store)
        return (
            got["through"] == expected["through"]
            and got["samples"] == expected["samples"]
            and math.isclose(got["dwell"], expected["dwell"], rel_tol=1e-9)
        )

    return check


class ShardedFanout(Workload):
    name = "sharded_fanout"
    pinned = False  # two shard processes need both cores
    #: ~0.15 s fan-outs against a ~1.2 s build: like shares of the round.
    mix = interleave({"through": 8, "pietql": 8, "store_build": 1})

    def oracle(self) -> None:
        city, _, context = open_city(self.inputs)
        n_objects = self.scale.n_objects
        self.serial_store = store_fingerprint(
            PreAggStore(
                context.moft("FM"), context.time, "day",
                city.gis.layer("Ln").elements(POLYGON), layer="Ln", kind=POLYGON,
            )
        )
        self.expected = {
            "through": oracle_through(context, n_objects, "through"),
            "pietql": oracle_pietql(context, n_objects),
        }

    def setup(self) -> None:
        self.city, _, self.context = open_city(self.inputs)
        self.polygons = self.city.gis.layer("Ln").elements(POLYGON)
        self.text = pietql_text(self.context)
        self.sharded = ShardedExecutor(
            backend="processes",
            n_shards=2,
            obs=self.context.obs,
            # Measuring payloads costs a pickling pass: traced run only.
            track_payload_bytes=self.traced,
        )
        self.pietql = ShardedPietQLExecutor(
            self.context, dict(SYNTH_BINDINGS), sharded=self.sharded
        )
        # First answer on the calling thread: it fills the overlay and
        # grid-index caches.  There is no pool to start — every fan-out
        # forks its own — and a forking first query would put into
        # ``setup_s`` a cost that swings by 30 % with the state of the
        # second core; the ops of each round carry it instead.
        count_objects_through(
            self.context, TARGET, list(CONSTRAINTS), use_preagg=False
        )

    def observers(self):
        return [self.context.obs]

    def _through(self, tr):
        args = (self.context, TARGET, list(CONSTRAINTS))
        with spanned(tr, "plan") as record:
            plan = plan_count_objects_through(
                *args, executor=self.sharded, force_strategy="sharded"
            )
            if record is not None:
                record["attrs"][f"strategy.{plan.strategy}"] = 1
        with spanned(tr, "execute"):
            count = execute_plan(plan, *args, executor=self.sharded)
        with spanned(tr, "serialize"):
            return canonical_json(result_payload("through", count))

    def _pietql(self, tr):
        with spanned(tr, "parse"):
            query = parse(self.text)
        with spanned(tr, "execute"):
            result = self.pietql.execute(query)
        with spanned(tr, "serialize"):
            return canonical_json(result_payload("pietql", result))

    def _store_build(self, tr):
        with spanned(tr, "build_preagg_store"):
            return self.sharded.build_preagg_store(
                self.context.moft("FM"), self.context.time, "day",
                self.polygons, layer="Ln", kind=POLYGON,
            )

    def round(self, tracer=None):
        calls = {
            "through": (self._through, same_json(self.expected["through"])),
            "pietql": (self._pietql, same_json(self.expected["pietql"])),
            "store_build": (self._store_build, same_store(self.serial_store)),
        }
        results: List[OpResult] = []
        for kind in self.mix:
            call, check = calls[kind]
            run_op(
                kind, call, check, results, tracer, self.observers(), self.speed
            )
        return busy_seconds(results), results

    def op_metrics(self, results, walls):
        return {
            "op.through_p50_ms": p50_ms(results, "through"),
            "op.pietql_p50_ms": p50_ms(results, "pietql"),
            "op.store_build_s": p50_ms(results, "store_build") / 1e3,
        }

    def layer_metrics(self, trace, first_round, counts):
        metrics = counter_metrics(counts)
        fm = self.context.moft("FM")
        metrics.update(query_span_metrics(trace))
        metrics["parallel.partition_ms"] = 1e3 * per_call(
            lambda: fm.partition_by_objects(2), 0.1
        )
        rows = [len(shard) for shard in fm.partition_by_objects(2)]
        metrics["parallel.shard_skew"] = max(rows) / statistics.fmean(rows)
        fanout = metrics.get("parallel.fanout_s")
        if fanout:
            metrics["parallel.efficiency"] = metrics.get(
                "parallel.shard_scan_s", 0.0
            ) / (2 * fanout)
        metrics.update(kernel_probes(self.context, self.scale.probe_segments))
        return metrics


# ---------------------------------------------------------------------------
# service_jobs: queue, leases, worker poll and persistence are the latency
# ---------------------------------------------------------------------------


class ServiceJobs(Workload):
    name = "service_jobs"
    clients = 2
    cpu_bound = False

    def generate(self) -> float:
        return 0.0  # the Figure 1 world is the paper's fixed instance

    def reps(self):
        each = self.scale.jobs_per_client * self.clients // 2
        return {"job_through": each, "job_pietql": each}

    def oracle(self) -> None:
        world = load_world("fig1")
        self.expected = {
            "job_through": execute_spec(FIG1_SPEC, world)[0],
            "job_pietql": execute_spec(QuerySpec.pietql(FIG1_TEXT), world)[0],
        }
        if json.loads(self.expected["job_through"])["count"] < 1:
            raise DegenerateWorld("the Figure 1 through-count is empty")

    def setup(self) -> None:
        self.world = load_world("fig1")
        self.folder = Path(tempfile.mkdtemp(prefix="svc-", dir=self.tmp_root))
        self.queue = SQLiteJobQueue(str(self.folder / "jobs.db"))
        self.service = QueryService(self.world, queue=self.queue, n_workers=2)
        self.service.start()
        self.jobs_done = 0
        self.thinks = [0] * self.clients
        self._job("job_through", FIG1_SPEC, "setup", None)

    def teardown(self) -> None:
        self.service.stop()
        self.queue.close()
        shutil.rmtree(self.folder, ignore_errors=True)

    def observers(self):
        return [self.service.obs, self.world.context.obs]

    def _job(self, kind, query, client, tr):
        """submit -> wait -> result in hand, as canonical JSON."""
        svc = self.service
        with spanned(tr, "submit"):
            job_id = svc.submit(query, client_id=client)
        with spanned(tr, "wait") as record:
            job = svc.wait(job_id, timeout=JOB_TIMEOUT_S)
            if record is not None:
                record["attrs"].update(json.loads(job.metrics_json or "{}"))
        with spanned(tr, "result"):
            return canonical_json(svc.result(job_id))

    def round(self, tracer=None):
        results: List[List[OpResult]] = [[] for _ in range(self.clients)]

        def client(slot: int) -> None:
            for i in range(self.scale.jobs_per_client):
                self.thinks[slot] += 1
                time.sleep(THINK_PERIOD_S * (self.thinks[slot] * GOLDEN % 1.0))
                # Clients start on different kinds, so the two are never
                # both waiting on the same query kind.
                through = (i + slot) % 2 == 0
                kind = "job_through" if through else "job_pietql"
                query = FIG1_SPEC if through else FIG1_TEXT
                run_op(
                    kind,
                    lambda tr: self._job(kind, query, f"client-{slot}", tr),
                    same_json(self.expected[kind]),
                    results[slot],
                    tracer,
                )

        threads = [
            threading.Thread(target=client, args=(slot,))
            for slot in range(self.clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - started
        merged = [r for per_client in results for r in per_client]
        self.jobs_done += len(merged)
        return seconds, merged

    def op_metrics(self, results, walls):
        latencies = sorted(r.seconds for r in results if r.ok)
        if not latencies:
            return {}
        return {
            "op.job_p50_ms": 1e3 * statistics.median(latencies),
            "op.job_p95_ms": 1e3 * latencies[int(0.95 * (len(latencies) - 1))],
            # Think time included: the rate two closed-loop clients get.
            "op.jobs_per_s": len(latencies) / sum(walls),
        }

    def layer_metrics(self, trace, first_round, counts):
        metrics = counter_metrics(counts)
        waits = [s for s in trace if s["name"] == "wait"]
        metrics["service.submit_ms"] = mean_ms(sp.durations(trace, "submit"))
        metrics["service.result_fetch_ms"] = mean_ms(sp.durations(trace, "result"))
        metrics["service.queue_wait_ms"] = mean_ms(
            [s["attrs"].get("queue_wait_s", 0.0) for s in waits]
        )
        metrics["service.run_ms"] = mean_ms(
            [s["attrs"].get("run_s", 0.0) for s in waits]
        )
        payload = json.loads(self.expected["job_pietql"])
        metrics["service.serialize_us"] = 1e6 * per_call(
            lambda: canonical_json(payload), 0.02
        )
        metrics["pietql.parse_us"] = 1e6 * per_call(lambda: parse(FIG1_TEXT), 0.02)
        metrics["service.worker_utilization"] = self.service.metrics()[
            "worker_utilization"
        ]
        db_bytes = (self.folder / "jobs.db").stat().st_size
        metrics["service.db_bytes_per_job"] = db_bytes / (self.jobs_done + 1)
        return metrics


# ---------------------------------------------------------------------------
# ingest_interleaved: writes beside reads on the same preagg.store
# ---------------------------------------------------------------------------


class IngestInterleaved(Workload):
    name = "ingest_interleaved"
    config = IngestConfig(allowed_lateness=2, compact_every=8)
    query_every = 4

    def generate(self) -> float:
        started = time.perf_counter()
        super().generate()
        self.batches = worlds.arrival_batches(self.inputs)
        return time.perf_counter() - started

    def reps(self):
        queries = len(self.batches) // self.query_every
        return {
            "submit": len(self.batches),
            "query_store": (queries + 1) // 2,
            "query_scan": queries // 2,
        }

    def _ingestor(self, maintained: bool) -> StreamingIngestor:
        specs = (StoreSpec("day", "Ln", POLYGON),) if maintained else ()
        return StreamingIngestor(
            self.city.gis, self.time_dim, config=self.config, store_specs=specs
        )

    def oracle(self) -> None:
        """Replay the feed with no store: every snapshot query by the
        plain scan, and the final table against a one-shot batch load."""
        self.city, _ = worlds.build_map()
        self.time_dim = worlds.time_dimension(self.scale.n_instants)
        ingestor = self._ingestor(maintained=False)
        answers = []
        for index, batch in enumerate(self.batches):
            ingestor.submit(*batch)
            if index % self.query_every == self.query_every - 1:
                answers.append(
                    count_objects_through(
                        ingestor.snapshot().context(), TARGET,
                        list(CONSTRAINTS), use_preagg=False,
                    )
                )
        ingestor.close()
        late = {(oid, t) for oid, t, _, _ in ingestor.late_samples()}
        accepted = [
            sample
            for batch in self.batches
            for sample in zip(*batch)
            if (sample[0], sample[1]) not in late
        ]
        reference = MOFT.from_columns(*map(list, zip(*accepted)), name="FM")
        final = count_objects_through(
            EvaluationContext(self.city.gis, self.time_dim, reference),
            TARGET, list(CONSTRAINTS), use_preagg=False,
        )
        n_objects = self.scale.n_objects
        if not 0.1 * n_objects < final < 0.9 * n_objects:
            raise DegenerateWorld(f"final through matches {final} of {n_objects}")
        self.expected = {
            "queries": answers,
            "final": final,
            "rows": len(accepted),
            "late": len(late),
        }

    def setup(self) -> None:
        self.city, _ = worlds.build_map()
        self.time_dim = worlds.time_dimension(self.scale.n_instants)
        # Live once the first sealed segment is published and a reader
        # has been served from the maintained store.
        ingestor = self._ingestor(maintained=True)
        for batch in self.batches:
            if ingestor.submit(*batch).ingested:
                break
        count_objects_through(
            ingestor.snapshot().context(), TARGET, list(CONSTRAINTS)
        )
        self.ingest_obs: List[PipelineStats] = []

    def observers(self):
        return self.ingest_obs

    def round(self, tracer=None):
        """One whole feed through a fresh ingestor, ``close()`` included."""
        ingestor = self._ingestor(maintained=True)
        # Fresh observers per round: their totals are the round's delta.
        # Snapshot queries count into the stats object the caller hands
        # them (a private one otherwise), so hand them a visible one.
        scan_stats = EvaluationStats()
        self.ingest_obs = [ingestor.obs, scan_stats]
        self.segments_peak = 0
        results: List[OpResult] = []
        accounted = [0, 0]  # submitted, ingested + late

        def submit(batch, tr):
            with spanned(tr, "submit"):
                return ingestor.submit(*batch)

        def settled(report) -> bool:
            accounted[0] += report.submitted
            accounted[1] += report.ingested + report.late
            self.segments_peak = max(
                self.segments_peak, ingestor.obs.count("moft_segments")
            )
            return accounted[0] == accounted[1] + report.buffered

        def pin():
            context = ingestor.snapshot().context()
            # Batches that sealed nothing leave the snapshot (and its
            # cached context) in place: count its observer once.
            if not any(obs is context.obs for obs in self.ingest_obs):
                self.ingest_obs.append(context.obs)
            return context

        def query(served: bool, tr):
            with spanned(tr, "pin"):
                context = pin()
            with spanned(tr, "query"):
                return count_objects_through(
                    context, TARGET, list(CONSTRAINTS), use_preagg=served,
                    stats=scan_stats,
                )

        def close(tr):
            with spanned(tr, "close"):
                return ingestor.close()

        def op(kind, call, check, observers=()):
            return run_op(
                kind, call, check, results, tracer, observers, self.speed
            )

        asked = 0
        for index, batch in enumerate(self.batches):
            report = op(
                "submit", lambda tr: submit(batch, tr), settled, (ingestor.obs,)
            )
            if report is not None and report.ingested == 0:
                # Buffered only: an append to a list, not a publish.
                results[-1].kind = "submit_buffered"
            if index % self.query_every == self.query_every - 1:
                want = self.expected["queries"][asked]
                served = asked % 2 == 0
                op(
                    "query_store" if served else "query_scan",
                    lambda tr: query(served, tr), lambda got: got == want,
                )
                asked += 1
        final = op(
            "close", close, lambda snap: snap.rows == self.expected["rows"],
            (ingestor.obs,),
        )
        seconds = busy_seconds(results)
        if final is None:
            return seconds, results
        # The final snapshot must answer like a one-shot batch load.
        got = count_objects_through(
            final.context(), TARGET, list(CONSTRAINTS), use_preagg=False
        )
        late = ingestor.obs.count("samples_late")
        if got != self.expected["final"] or late != self.expected["late"]:
            results[-1].ok = False
        self.last_ingestor = ingestor
        return seconds, results

    def op_metrics(self, results, walls):
        closed = sum(1 for r in results if r.kind == "close" and r.ok)
        return {
            # Accepted samples over the time of the rounds that took
            # them in, ``close()`` included.
            "op.ingest_samples_per_s": closed * self.expected["rows"] / sum(walls),
            # Buffered-only submits (``submit_buffered``) are list appends.
            "op.submit_p50_ms": p50_ms(results, "submit"),
            "op.snapshot_query_p50_ms": p50_ms(results, "query_store"),
            "op.snapshot_scan_p50_ms": p50_ms(results, "query_scan"),
        }

    def layer_metrics(self, trace, first_round, counts):
        metrics = counter_metrics(counts)
        ingestor = self.last_ingestor
        metrics["ingest.max_submit_ms"] = 1e3 * max(sp.durations(trace, "submit"))
        metrics["ingest.snapshot_pin_us"] = 1e3 * mean_ms(sp.durations(trace, "pin"))
        metrics["ingest.segments_peak"] = self.segments_peak
        store = ingestor.snapshot().stores[0]
        table = ingestor.snapshot().context().moft("FM")
        metrics["preagg.clone_ms"] = 1e3 * per_call(
            lambda: store.clone(moft=table), 0.05
        )
        metrics["preagg.update_ms"] = mean_ms(
            [s["attrs"].get("preagg_update_seconds", 0.0)
             for s in trace if s["name"] == "op:submit"
             and s["attrs"].get("ingest_flushes")]
        )
        stats = store.stats()
        metrics["preagg.cells"] = stats.granules * stats.geometries
        metrics["preagg.bytes"] = len(pickle.dumps(store, pickle.HIGHEST_PROTOCOL))
        return metrics


WORKLOADS = {
    "cold_scan": lambda *a: CityQueries("cold_scan", *a),
    "warm_preagg": lambda *a: CityQueries("warm_preagg", *a),
    "sharded_fanout": ShardedFanout,
    "service_jobs": ServiceJobs,
    "ingest_interleaved": IngestInterleaved,
}


def sweep_shm() -> int:
    """Remove the shared-memory segments this process's fan-outs left
    behind, and say how many there were (must be none)."""
    mine = [
        name for name in leaked_segments()
        if name.startswith(f"{BLOCK_PREFIX}{os.getpid()}-")
    ]
    for name in mine:
        try:
            os.unlink(f"/dev/shm/{name}")
        except OSError:
            pass
    return len(mine)
