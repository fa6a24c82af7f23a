"""Resident shards: what a fan-out needs outlives the fan-out.

One pool per backend instance, partition and shared-memory image per
table version in the executor, opened shard and segment table per
worker — and none of it visible in the answers: every result here is
compared with the serial scan.  What must *not* outlive a fan-out (the
``/dev/shm`` name), what bounds the caches, and how pool and workers end
(``close()``, a dropped executor, a killed worker, a process that just
returns) are pinned alongside.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
from datetime import datetime
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import repro.parallel.shm as shm
from repro.errors import ShardExecutionError
from repro.faults import FaultPlan, FaultSpec
from repro.geometry.point import BoundingBox, Point
from repro.geometry.polygon import Polygon
from repro.gis import (
    ALL,
    NODE,
    POINT,
    POLYGON,
    POLYLINE,
    GISDimensionInstance,
    GISDimensionSchema,
    LayerHierarchy,
)
from repro.mo.moft import MOFT, SegmentIndex
from repro.obs import PipelineStats
from repro.parallel import (
    ProcessBackend,
    RetryPolicy,
    ShardedExecutor,
    ShardedPietQLExecutor,
)
from repro.parallel.executor import RESIDENT_TABLES, _build_store_task
from repro.parallel.shm import MAX_OPEN_SHARDS, leaked_segments
from repro.preagg import PreAggStore
from repro.query.evaluator import (
    TrajectoryIntersectionCounter,
    count_objects_through,
    counter_for,
    execute,
    objects_through,
    resolve_through,
)
from repro.query.planner import (
    CostModel,
    plan_count_objects_through,
)
from repro.query.poi import poi_visit_counts
from repro.query.region import EvaluationContext
from repro.service import load_world
from repro.synth import (
    CityConfig,
    build_city,
    install_city_pois,
    stop_biased_moft,
)
from repro.synth.movement import random_waypoint_moft
from repro.temporal.calendar import hourly
from repro.temporal.timedim import TimeDimension

from tests.parallel.conftest import FIG1_BINDINGS

REGION = Polygon([Point(20, 20), Point(70, 20), Point(70, 70), Point(20, 70)])
BACKENDS = ("serial", "processes")
SRC = str(Path(__file__).resolve().parents[2] / "src")


def small_moft(seed: int, n_objects: int = 30, n_instants: int = 20) -> MOFT:
    moft = random_waypoint_moft(
        BoundingBox(0.0, 0.0, 100.0, 100.0),
        n_objects=n_objects,
        n_instants=n_instants,
        speed=5.0,
        seed=seed,
    )
    moft.as_arrays()
    return moft


@pytest.fixture(scope="module")
def moft():
    return small_moft(31, n_objects=50)


@pytest.fixture(scope="module")
def counter():
    return TrajectoryIntersectionCounter({"region": REGION})


@pytest.fixture(autouse=True)
def no_leaks():
    """Every test runs between two /dev/shm sweeps."""
    before = leaked_segments()
    yield
    assert leaked_segments() == before


# -- shard functions (module level: the processes backend pickles them) -------


def probe_shard(shard):
    """Where a shard task ran, on which table object, and whether that
    table already had its segment index (asking for it sorted nothing)."""
    sorts, original = [], SegmentIndex.__dict__["build"]
    build = SegmentIndex.build

    def counting_build(*columns):
        sorts.append(len(columns[-1]))
        return build(*columns)

    SegmentIndex.build = counting_build
    try:
        shard.segment_index()
    finally:
        SegmentIndex.build = original
    indexed = not sorts
    first = shard.oid_column()[0]
    return {(os.getpid(), first): (id(shard), indexed)}


def count_mappings(shard):
    """``repro-zc`` mappings of the process that ran this task."""
    lines = Path("/proc/self/maps").read_text().splitlines()
    return {os.getpid(): sum(shm.BLOCK_PREFIX in line for line in lines)}


def rows_once_flag_gone(flag, action, shard):
    """``len(shard)`` — after ``action`` while the file ``flag`` exists
    (the first task to see it removes it)."""
    try:
        os.unlink(flag)
    except FileNotFoundError:
        return {"rows": len(shard)}
    if action == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(float(action))
    return {"rows": len(shard)}


def shard_rows(shard):
    return {"rows": len(shard)}


def pass_labels(counter, shard):
    """The label grid of the pass ``counter`` scans with — in a task,
    the one its process takes from the layer — as bytes."""
    counter.matching_objects(shard)
    labels = counter._pass.labels
    return {os.getpid(): (
        labels.grid, labels.labels.dtype.str, labels.labels.tobytes(),
        labels.across.tobytes(), labels.up.tobytes(),
    )}


def region_gis(polygons) -> GISDimensionInstance:
    """A one-layer world, ``Ln``, over ``polygons`` (one polygon: the
    id ``"region"``)."""
    if isinstance(polygons, Polygon):
        polygons = {"region": polygons}
    gis = GISDimensionInstance(GISDimensionSchema(
        [LayerHierarchy("Ln", [(POINT, POLYGON), (POLYGON, ALL)])], []
    ))
    for gid, polygon in polygons.items():
        gis.add_geometry("Ln", POLYGON, gid, polygon)
    return gis


def region_counter(gis, rows: int = 0):
    """The ``sharded`` scan counter over all of ``gis``'s ``Ln``
    polygons, as the through leaf builds it (its pass labelled when
    ``rows`` pay for it)."""
    context = EvaluationContext(gis, TimeDimension.from_explicit_rollups(
        [("timeId", 0, "hour", 0)]
    ))
    ids = set(gis.layer("Ln").elements(POLYGON))
    return counter_for(context, ("Ln", POLYGON), ids, "sharded", rows=rows)


def merge_dicts(parts):
    merged = {}
    for part in parts:
        merged.update(part)
    return merged


def worker_pids(executor, table):
    return set(executor.aggregate_moft(table, count_mappings, merge_dicts))


def alive(pid: int) -> bool:
    """Running — a zombie awaiting its parent's ``wait`` has ended."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def assert_gone(pids, within_s: float = 10.0) -> None:
    deadline = time.monotonic() + within_s
    while any(alive(pid) for pid in pids):
        assert time.monotonic() < deadline, sorted(pids)
        time.sleep(0.01)


# -- residency -----------------------------------------------------------------


class CallCounts:
    """Counting wrappers around the two steps that must not repeat."""

    def __init__(self, monkeypatch) -> None:
        self.partitions = self.images = 0
        cut, serialize = MOFT.partition_by_objects, shm.serialize_columns

        def counting_cut(table, n):
            self.partitions += 1
            return cut(table, n)

        def counting_serialize(*args, **kwargs):
            self.images += 1
            return serialize(*args, **kwargs)

        monkeypatch.setattr(MOFT, "partition_by_objects", counting_cut)
        monkeypatch.setattr(shm, "serialize_columns", counting_serialize)

    @property
    def both(self):
        return (self.partitions, self.images)


class TestResidency:
    def test_partition_and_image_once_per_table_version(
        self, counter, monkeypatch
    ):
        table, other = small_moft(1), small_moft(2)
        counts = CallCounts(monkeypatch)
        obs = PipelineStats()
        # One worker, so that it holds every image it was sent once.
        with ShardedExecutor(
            ProcessBackend(max_workers=1), n_shards=2, obs=obs
        ) as executor:

            def check(which, on=executor):
                expected = counter.matching_objects(which)
                for _ in range(5):
                    got = on.matching_objects(counter, which)
                    assert got == expected

            check(table)
            assert counts.both == (1, 1)
            table.add("late", 3.5, 50.0, 50.0)
            check(table)
            assert counts.both == (2, 2)
            table.extend_columns(["later"] * 2, [1.0, 2.0], [30.0, 60.0], [30.0, 60.0])
            check(table)
            assert counts.both == (3, 3)
            with ShardedExecutor(
                ProcessBackend(max_workers=1), n_shards=3, obs=obs
            ) as wider:
                check(table, wider)
            assert counts.both == (4, 4)
            check(other)
            assert counts.both == (5, 5)
            check(table)  # still resident beside the second table
            assert counts.both == (5, 5)
        # The first fan-out over each image published (and unlinked) a
        # block; the other 25 found the image in the worker.
        assert obs.count("zero_copy_blocks") == 5
        assert obs.count("missing_shards") == 0
        assert obs.count("shard_cache_misses") == 5
        assert obs.count("shard_cache_hits") == 25

    def test_worker_keeps_table_and_segment_index(self, moft):
        # One worker, so that both shards land on it every time.
        with ShardedExecutor(ProcessBackend(max_workers=1), n_shards=2) as ex:
            runs = [
                ex.aggregate_moft(moft, probe_shard, merge_dicts)
                for _ in range(3)
            ]
        first, *later = runs
        assert len(first) == 2
        assert {indexed for _, indexed in first.values()} == {False}
        for run in later:
            assert run.keys() == first.keys()
            for slot, (table_id, indexed) in run.items():
                assert table_id == first[slot][0]
                assert indexed

    def test_worker_keeps_the_answer_pass(self, moft):
        """A scan task carries its answer's key, never its geometries:
        a worker forked after the layer was made takes the pass from its
        copy of the layer (every task a hit); a layer made after the
        fork — even one with the same name, ids and polygons — is missed
        once per task of its first fan-out, and those tasks are re-sent
        with the geometries in the same attempt, spending no retry."""

        def fan_out(counter, times):
            expected = counter.matching_objects(moft)
            stats = PipelineStats()
            for _ in range(times):
                assert ex.matching_objects(counter, moft, stats) == expected
            return (
                stats.count("pass_cache_hits"), stats.count("pass_cache_misses")
            )

        obs = PipelineStats()
        worlds = [region_gis(REGION)]
        first = region_counter(worlds[0])
        # One worker, so that both shards land on it every time.
        with ShardedExecutor(
            ProcessBackend(max_workers=1), n_shards=2, obs=obs
        ) as ex:
            assert fan_out(first, 3) == (6, 0)
            assert obs.count("missing_shards") == 0
            worlds.append(region_gis(REGION))
            later = region_counter(worlds[1])
            assert later.key != first.key
            assert fan_out(later, 1) == (0, 2)
            assert obs.count("missing_shards") == 2
            assert fan_out(later, 2) == (4, 0)
            assert fan_out(first, 1) == (2, 0)
        assert obs.count("task_retries") == 0
        assert obs.count("missing_shards") == 2

    def test_equal_layer_names_and_ids_never_share_a_pass(self, moft):
        """Two worlds whose layers share names and ids but not polygons:
        in this process and in a worker, each answer is scanned with its
        own polygons."""
        far = Polygon([Point(75, 75), Point(99, 75), Point(99, 99), Point(75, 99)])
        worlds = [region_gis(poly) for poly in (REGION, far)]
        counters = [region_counter(gis) for gis in worlds]
        expected = [counter.matching_objects(moft) for counter in counters]
        assert expected[0] != expected[1]
        with ShardedExecutor(ProcessBackend(max_workers=1), n_shards=2) as ex:
            for _ in range(2):
                for counter, answer in zip(counters, expected):
                    assert ex.matching_objects(counter, moft) == answer

    def test_restricted_scan_masks_the_resident_shards(
        self, moft, counter, monkeypatch
    ):
        counts = CallCounts(monkeypatch)
        t, _, _ = moft.as_arrays()
        with ShardedExecutor("processes", n_shards=2) as executor:
            for lo in (2.0, 5.0, 9.0):
                window = (lo, lo + 6.0)
                got = executor.matching_objects(
                    counter, moft, restriction=(window, None)
                )
                masked = moft.mask_rows((t >= window[0]) & (t <= window[1]))
                assert got == counter.matching_objects(masked)
        assert counts.both == (1, 1)


    def test_planner_charges_per_row_only_until_the_shards_are_resident(
        self, synth_world
    ):
        context, moft = synth_world.context, synth_world.moft
        # (First, so that both plans find the grid index cached.)
        expected = objects_through(context, use_preagg=False, **SYNTH_QUERY)
        with ShardedExecutor("processes", n_shards=2) as executor:
            first = plan_count_objects_through(
                context, executor=executor, force_strategy="sharded",
                **SYNTH_QUERY,
            )
            assert not executor.holds_shards(moft)
            assert first.execute(executor).answer == expected
            assert executor.holds_shards(moft)
            second = plan_count_objects_through(
                context, executor=executor, force_strategy="sharded",
                **SYNTH_QUERY,
            )
        assert first.est_cost - second.est_cost == pytest.approx(
            len(moft) * CostModel().process_row_ship_cost
        )


# The restricted through-count, front to back, against the serial scan
# of the masked table.  Windows and DURING sets that line up with the
# data, cut through it, keep nothing and keep everything.
FIG1_QUERY = dict(
    target=("Ln", POLYGON),
    constraints=[("intersects", ("Lr", POLYLINE)), ("contains", ("Ls", NODE))],
    moft_name="FMbus",
)
FIG1_WINDOWS = [(2.0, 4.0), (1.5, 4.2), (2.2, 2.8), (1.0, 6.0)]
FIG1_INSTANTS = [{2.0, 3.0, 4.0}, {2.0, 5.0, 77.0}, {0.5, 77.0}, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}]
SYNTH_QUERY = dict(
    target=("Ln", POLYGON),
    constraints=[("contains", ("Ls", NODE))],
    moft_name="FM",
)
SYNTH_WINDOWS = [(24.0, 47.0), (10.5, 47.2), (10.2, 10.8), (0.0, 99.0)]
SYNTH_INSTANTS = [
    set(map(float, range(24, 48))),
    {3.0, 4.0, 7.0, 50.0, 98.0, 1234.0},
    {0.5, 1234.0},
    set(map(float, range(100))),
]


def check_restrictions(context, query, windows, instant_sets):
    moft = context.moft(query["moft_name"])
    matched = 0
    for backend in BACKENDS:
        with ShardedExecutor(backend, n_shards=3) as executor:
            for window in windows:
                expected = objects_through(
                    context, window=window, use_preagg=False, **query
                )
                got = objects_through(
                    context, window=window, use_preagg=False,
                    executor=executor, **query,
                )
                assert got == expected, (backend, window)
                matched += len(got)
            for instants in instant_sets:
                leaf = resolve_through(
                    context, instants=instants, use_preagg=False, **query
                )
                assert leaf.ids
                assert leaf.rows == int(leaf.row_mask.sum()) == len(
                    moft.restrict_instants(instants)
                )
                expected = execute(leaf, "grid").answer
                got = execute(leaf, "sharded", executor).answer
                assert got == expected, (backend, sorted(instants)[:3])
                matched += len(got)
    assert matched, "vacuous: no restriction matched any object"


class TestRestrictedScans:
    def test_figure1(self, fig1_context):
        check_restrictions(
            fig1_context, FIG1_QUERY, FIG1_WINDOWS, FIG1_INSTANTS
        )

    def test_synth_city(self, synth_world):
        check_restrictions(
            synth_world.context, SYNTH_QUERY, SYNTH_WINDOWS, SYNTH_INSTANTS
        )

    def test_restriction_keeping_no_row_fans_nothing_out(self, synth_world):
        obs = PipelineStats()
        with ShardedExecutor("serial", n_shards=2, obs=obs) as executor:
            got = objects_through(
                synth_world.context, window=(10.2, 10.8), use_preagg=False,
                executor=executor, **SYNTH_QUERY,
            )
        assert got == set()
        assert obs.count("shard_count") == 0


class TestHybridSliver:
    """The store-served hybrid hands its executor the sliver table its
    prepared leaf keeps, so a repeated query finds that table's
    partition resident."""

    def test_repeated_hybrid_keeps_its_partition(self):
        context = load_world("synth").context
        moft = context.moft("FM")
        context.register_preagg(PreAggStore(
            moft, context.time, "day",
            context.gis.layer("Ln").elements(POLYGON),
            layer="Ln", kind=POLYGON,
        ))
        query = dict(
            target=("Ln", POLYGON),
            constraints=[("intersects", ("Lr", POLYLINE))],
            moft_name="FM", window=(30.5, 80.5),
        )
        expected = count_objects_through(context, use_preagg=False, **query)
        executor = ShardedExecutor("serial", n_shards=2)
        misses = []
        for _ in range(3):
            assert count_objects_through(
                context, executor=executor, **query
            ) == expected
            misses.append(executor.obs.count("shard_cache_misses"))
        assert misses == [1, 1, 1]
        assert context.obs.count("preagg_hits") == 3
        assert context.obs.count("sliver_scan_rows") > 0


# -- publishing on a miss ------------------------------------------------------


class TestPublishOnMiss:
    """The first fan-out over an image publishes it; a later one sends
    key-only descriptors and publishes only for a worker that lacks the
    image — never as an attempt, a retry or a fault-plan coordinate.
    One worker, so that every count is exact."""

    def test_warm_pool_publishes_nothing(self, moft, counter):
        expected = counter.matching_objects(moft)
        before = leaked_segments()
        obs = PipelineStats()
        with ShardedExecutor(
            ProcessBackend(max_workers=1), n_shards=2, obs=obs
        ) as executor:
            assert executor.matching_objects(counter, moft) == expected
            assert obs.count("zero_copy_blocks") == 1
            for _ in range(4):
                assert executor.matching_objects(counter, moft) == expected
                assert leaked_segments() == before
                assert executor.aggregate_moft(moft, shard_rows) == {
                    "rows": len(moft)
                }
                assert leaked_segments() == before
        assert obs.count("zero_copy_blocks") == 1
        assert obs.count("missing_shards") == 0
        assert obs.count("shard_count") == 18

    @pytest.mark.parametrize("failure_mode", ["raise", "retry"])
    def test_worker_killed_between_fanouts_gets_one_block(
        self, moft, counter, failure_mode
    ):
        """The fresh worker lacks the image: both its tasks report it
        missing, the fan-out publishes once and re-sends them in the
        same attempt — under ``raise`` too, and past a fault planned
        for a second attempt that must never come."""
        expected = counter.matching_objects(moft)
        before = leaked_segments()
        plan = FaultPlan.single("raise", task_index=0, attempt=1)
        obs = PipelineStats()
        with ShardedExecutor(
            ProcessBackend(max_workers=1), n_shards=2, obs=obs,
            failure_mode=failure_mode, fault_plan=plan,
        ) as executor:
            pids = worker_pids(executor, moft)
            assert obs.count("zero_copy_blocks") == 1
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            assert_gone(pids)
            assert executor.matching_objects(counter, moft) == expected
            assert leaked_segments() == before
            assert obs.count("zero_copy_blocks") == 2
            assert obs.count("missing_shards") == 2
            # The new worker holds the image now.
            assert executor.matching_objects(counter, moft) == expected
        assert obs.count("zero_copy_blocks") == 2
        assert obs.count("missing_shards") == 2
        assert obs.count("task_retries") == 0
        assert plan.trace == ()

    def test_serial_tier_resolves_a_miss_the_same_way(self, moft, counter):
        """Task 0 exhausts its retries on the warm pool and degrades to
        ``serial``, where this process lacks the image: one block, and
        the plan's trace is the three planned faults, no more."""
        expected = counter.matching_objects(moft)
        before = leaked_segments()
        obs = PipelineStats()
        with ShardedExecutor(
            ProcessBackend(max_workers=1), n_shards=2, obs=obs,
            failure_mode="degrade", retry_policy=RetryPolicy(max_retries=2),
        ) as executor:
            assert executor.matching_objects(counter, moft) == expected
            plan = FaultPlan([FaultSpec("raise", 0, a) for a in range(3)])
            executor.fault_plan = plan
            assert executor.matching_objects(counter, moft) == expected
            assert leaked_segments() == before
        assert len(plan.trace) == 3
        assert obs.count("backend_degradations") == 1
        assert obs.count("task_retries") == 3
        assert obs.count("missing_shards") == 1
        assert obs.count("zero_copy_blocks") == 2

    def test_worker_labels_the_frame_as_the_sender_did(self, moft):
        """A counter's pickle carries its answer's key and whether its
        pass has decided cells, not the cells: a worker forked before
        the layer existed, sent the geometries, labels a grid equal to
        the sender's byte for byte (the finest, a function of the
        polygons), and the key-only pickle is smaller than the labels."""
        polygons = {
            "square": REGION,
            "triangle": Polygon([Point(5, 60), Point(45, 95), Point(10, 98)]),
            "ell": Polygon([
                Point(60, 5), Point(95, 5), Point(95, 40), Point(80, 40),
                Point(80, 18), Point(60, 18),
            ]),
        }
        with ShardedExecutor(ProcessBackend(max_workers=1), n_shards=2) as ex:
            # (The pool forks here, before the layer exists.)
            ex.matching_objects(TrajectoryIntersectionCounter(polygons), moft)
            world = region_gis(polygons)
            counter = region_counter(world, rows=10**4)
            labels = counter._pass.labels.labels
            assert {-2, -1} < set(labels.tolist())  # mixed, outside, inside
            sent = pass_labels(counter, moft)[os.getpid()]
            assert len(pickle.dumps(counter)) < labels.nbytes
            got = ex.aggregate_moft(
                moft, partial(pass_labels, counter.carrying()), merge_dicts
            )
        assert got and all(value == sent for value in got.values())


# -- bounds --------------------------------------------------------------------


class TestBounds:
    def test_twenty_tables_stay_within_the_constants(self, counter):
        tables = [small_moft(100 + i, n_objects=12) for i in range(20)]
        with ShardedExecutor("processes", n_shards=2) as executor:
            for table in tables:
                assert executor.matching_objects(
                    counter, table
                ) == counter.matching_objects(table)
                assert len(executor._resident) <= RESIDENT_TABLES
            assert len(executor._resident) == RESIDENT_TABLES
            mapped = executor.aggregate_moft(
                tables[-1], count_mappings, merge_dicts
            )
        assert mapped
        for pid, mappings in mapped.items():
            assert 1 <= mappings <= MAX_OPEN_SHARDS, (pid, mappings)

    def test_coordinator_side_map_is_bounded_too(self):
        # Shards opened right here, the way a worker opens them.
        tables = [small_moft(200 + i, n_objects=12) for i in range(6)]
        for table in tables:
            image = shm.serialize_shards(table.partition_by_objects(2))
            block, descriptors = image.publish()
            try:
                for descriptor in descriptors:
                    shm.open_shard(descriptor)
            finally:
                block.close()
        assert len(shm._OPEN) <= MAX_OPEN_SHARDS
        assert count_mappings(None)[os.getpid()] <= MAX_OPEN_SHARDS

    def test_a_dead_table_takes_its_shards_along(self, counter):
        kept, dropped = small_moft(300), small_moft(301)
        with ShardedExecutor("processes", n_shards=2) as executor:
            executor.matching_objects(counter, kept)
            executor.matching_objects(counter, dropped)
            assert len(executor._resident) == 2
            del dropped
            gc.collect()
            assert [key[0] for key in executor._resident] == [id(kept)]
            assert executor.holds_shards(kept)

    def test_an_append_replaces_the_stale_entry(self, counter):
        table = small_moft(302)
        executor = ShardedExecutor("serial", n_shards=2)
        executor.matching_objects(counter, table)
        assert executor.holds_shards(table)
        table.add("late", 3.5, 50.0, 50.0)
        assert not executor.holds_shards(table)
        executor.matching_objects(counter, table)
        assert len(executor._resident) == 1


class TestSharedExecutor:
    def test_threads_hammering_one_executor(self, counter):
        """More threads than cores on one executor, more tables than
        either cache holds: every answer exact, both bounds kept."""
        tables = [small_moft(400 + i, n_objects=12) for i in range(6)]
        expected = [counter.matching_objects(table) for table in tables]
        errors = []

        def hammer(executor, offset):
            try:
                for i in range(25):
                    j = (i + offset) % len(tables)
                    got = executor.matching_objects(counter, tables[j])
                    assert got == expected[j], j
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ShardedExecutor("processes", n_shards=3) as ex:
                threads = [
                    threading.Thread(target=hammer, args=(ex, k))
                    for k in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(ex._resident) <= RESIDENT_TABLES
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert len(shm._OPEN) <= MAX_OPEN_SHARDS


# -- POI store builds ----------------------------------------------------------


@pytest.fixture(scope="module")
def poi_world():
    """A 4x4-block city, its POI discs and 30 visitors over 40 hours."""
    city = build_city(CityConfig(cols=4, rows=4), rng=np.random.default_rng(5))
    pois = install_city_pois(city)
    time_dim = TimeDimension.from_mapping(
        hourly(datetime(2006, 1, 9, 0, 0)), range(40)
    )
    return city.gis, time_dim, stop_biased_moft(pois, 30, 40)


class TestPoiBuilds:
    """A sharded POI build is a fan-out of the executor it is given."""

    def test_builds_ride_on_the_partition_a_through_scan_cut(
        self, poi_world, counter, monkeypatch
    ):
        gis, time_dim, table = poi_world
        context = EvaluationContext(gis, time_dim, table)
        expected = poi_visit_counts(context, "Lp", "day", strategy="serial")
        assert expected
        counts = CallCounts(monkeypatch)
        obs = PipelineStats()
        before = leaked_segments()
        # One worker: the scan's block is the only one the builds need.
        with ShardedExecutor(
            ProcessBackend(max_workers=1), n_shards=2, obs=obs
        ) as executor:
            executor.matching_objects(counter, table)
            assert counts.both == (1, 1)
            for hits in (1, 2):
                got = poi_visit_counts(
                    context, "Lp", "day", strategy="sharded", executor=executor
                )
                assert got == expected
                assert counts.both == (1, 1)
                assert obs.count("shard_cache_hits") == hits
                assert leaked_segments() == before
        assert obs.count("shard_cache_misses") == 1
        assert obs.count("zero_copy_blocks") == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shared_observer", [True, False])
    def test_worker_counters_reach_the_observers_once(
        self, poi_world, backend, shared_observer
    ):
        gis, time_dim, table = poi_world
        reference = EvaluationContext(gis, time_dim, table)
        poi_visit_counts(reference, "Lp", "day", strategy="serial")
        context = EvaluationContext(gis, time_dim, table)
        obs = context.obs if shared_observer else PipelineStats()
        with ShardedExecutor(backend, n_shards=3, obs=obs) as executor:
            poi_visit_counts(
                context, "Lp", "day", strategy="sharded", executor=executor
            )
        for name in ("stop_episodes", "poi_visits", "disc_kernel_segments"):
            assert reference.obs.count(name) > 0
            assert context.obs.count(name) == reference.obs.count(name)
            assert obs.count(name) == reference.obs.count(name)


    def test_shard_stores_come_back_without_their_table(self, poi_world):
        """The merge reads only the merged table, so a shard store does
        not carry (or pickle) its own."""
        gis, time_dim, table = poi_world
        polygons = gis.layer("Ln").elements(POLYGON)
        shards = table.partition_by_objects(2)
        stores = [
            _build_store_task((
                PreAggStore, shard, time_dim, "day", polygons,
                {"layer": "Ln", "kind": POLYGON},
            ))[0]
            for shard in shards
        ]
        assert all(store.moft is None for store in stores)
        merged = PreAggStore.merge(stores, table, time=time_dim)
        assert merged.moft is table and not merged.is_stale()


# -- lifecycle -----------------------------------------------------------------


class TestLifecycle:
    def test_killed_worker_is_a_typed_error_then_a_fresh_pool(
        self, moft, tmp_path
    ):
        flag = tmp_path / "die"
        executor = ShardedExecutor("processes", n_shards=2)
        before = worker_pids(executor, moft)
        flag.touch()
        with pytest.raises(ShardExecutionError):
            executor.aggregate_moft(
                moft, partial(rows_once_flag_gone, str(flag), "die")
            )
        assert not flag.exists()
        after = worker_pids(executor, moft)
        assert after and not after & before
        executor.close()
        assert_gone(before | after)

    def test_a_task_that_killed_its_worker_is_not_quietly_rerun(
        self, moft, tmp_path, monkeypatch
    ):
        """The coordinator stalls after each submit, so the first task
        kills its worker and the pool is marked broken before the
        second is submitted: the fan-out must still fail, not resubmit
        both tasks to a fresh pool where the first one now succeeds."""
        from concurrent.futures import ProcessPoolExecutor

        submit = ProcessPoolExecutor.submit

        def stalling_submit(self, *args, **kwargs):
            future = submit(self, *args, **kwargs)
            time.sleep(0.3)
            return future

        flag = tmp_path / "die"
        with ShardedExecutor("processes", n_shards=2) as executor:
            worker_pids(executor, moft)
            monkeypatch.setattr(
                ProcessPoolExecutor, "submit", stalling_submit
            )
            flag.touch()
            with pytest.raises(ShardExecutionError):
                executor.aggregate_moft(
                    moft, partial(rows_once_flag_gone, str(flag), "die")
                )
            assert not flag.exists()

    def test_killed_worker_is_retried_to_the_exact_answer(
        self, moft, tmp_path
    ):
        flag = tmp_path / "die"
        flag.touch()
        obs = PipelineStats()
        with ShardedExecutor(
            "processes", n_shards=2, obs=obs, failure_mode="retry"
        ) as executor:
            got = executor.aggregate_moft(
                moft, partial(rows_once_flag_gone, str(flag), "die")
            )
        assert got == {"rows": len(moft)}
        assert obs.count("task_retries") >= 1

    def test_worker_killed_between_fanouts_goes_unnoticed(self, moft, counter):
        expected = counter.matching_objects(moft)
        with ShardedExecutor("processes", n_shards=2) as executor:
            before = worker_pids(executor, moft)
            for pid in before:
                os.kill(pid, signal.SIGKILL)
            assert_gone(before)
            assert executor.matching_objects(counter, moft) == expected
            assert not worker_pids(executor, moft) & before

    def test_death_the_pool_has_not_noticed_yet_goes_unnoticed(
        self, moft, counter, monkeypatch
    ):
        """The race behind the test above, forced: the pool's manager
        thread marks the pool broken only 0.5 s after a worker died, so
        the next fan-out must find the dead worker itself rather than
        submit into the pool and lose every future."""
        import concurrent.futures.process as cfp

        manager = cfp._ExecutorManagerThread
        noticed = manager.wait_result_broken_or_wakeup

        def late(self):
            outcome = noticed(self)
            if outcome[1]:  # is_broken
                time.sleep(0.5)
            return outcome

        monkeypatch.setattr(manager, "wait_result_broken_or_wakeup", late)
        expected = counter.matching_objects(moft)
        with ShardedExecutor("processes", n_shards=2) as executor:
            before = worker_pids(executor, moft)
            for pid in before:
                os.kill(pid, signal.SIGKILL)
            assert_gone(before)
            assert executor.matching_objects(counter, moft) == expected
            assert not worker_pids(executor, moft) & before

    def test_straggler_is_abandoned_and_close_returns(self, moft, tmp_path):
        flag = tmp_path / "stall"
        flag.touch()
        obs = PipelineStats()
        executor = ShardedExecutor(
            "processes",
            n_shards=2,
            obs=obs,
            failure_mode="retry",
            retry_policy=RetryPolicy(max_retries=2, timeout_s=0.5),
        )
        got = executor.aggregate_moft(
            moft, partial(rows_once_flag_gone, str(flag), "3.0")
        )
        assert got == {"rows": len(moft)}
        assert obs.count("task_timeouts") >= 1
        started = time.monotonic()
        executor.close()
        assert time.monotonic() - started < 2.0

    def test_unpicklable_payload_is_a_typed_error(self, moft, counter):
        with ShardedExecutor("processes", n_shards=2) as executor:
            with pytest.raises(ShardExecutionError):
                executor.aggregate_moft(moft, lambda shard: {"rows": 1})
            assert executor.matching_objects(
                counter, moft
            ) == counter.matching_objects(moft)

    def test_executor_pickles_without_pool_or_cache(self, moft, counter):
        expected = counter.matching_objects(moft)
        with ShardedExecutor("processes", n_shards=2) as executor:
            assert executor.matching_objects(counter, moft) == expected
            assert executor._resident and executor.backend._pool is not None
            twin = pickle.loads(pickle.dumps(executor))
            assert not twin._resident and twin.backend._pool is None
            assert (twin.n_shards, twin.backend.name) == (2, "processes")
            with twin:
                assert twin.matching_objects(counter, moft) == expected

    def test_pietql_executor_pickles_without_pool_or_cache(self, fig1_context):
        text = (
            "SELECT layer.neighborhoods FROM Fig1 "
            "WHERE intersection(layer.rivers, layer.neighborhoods) "
            "AND contains(layer.neighborhoods, layer.schools) "
            "| COUNT OBJECTS FROM FMbus THROUGH RESULT"
        )
        sharded = ShardedExecutor(
            "processes", n_shards=2, obs=fig1_context.obs
        )
        executor = ShardedPietQLExecutor(
            fig1_context, FIG1_BINDINGS, sharded=sharded
        )
        try:
            assert executor.execute(text).count == 5
            twin = pickle.loads(pickle.dumps(executor))
            assert twin.sharded.backend._pool is None
            assert not twin.sharded._resident
            with twin.sharded:
                assert twin.execute(text).count == 5
        finally:
            sharded.close()

    def test_close_is_idempotent_and_not_final(self, moft, counter):
        expected = counter.matching_objects(moft)
        executor = ShardedExecutor("processes", n_shards=2)
        executor.close()  # nothing was started
        assert executor.matching_objects(counter, moft) == expected
        pids = worker_pids(executor, moft)
        executor.close()
        executor.close()
        assert not executor._resident and executor.backend._pool is None
        assert_gone(pids, within_s=0.0)
        assert executor.matching_objects(counter, moft) == expected
        executor.close()

    def test_constructing_an_executor_starts_nothing(self):
        executor = ShardedExecutor("processes", n_shards=2)
        assert executor.backend._pool is None and not executor._resident

    def test_a_dropped_executor_takes_its_workers_along(self, moft):
        executor = ShardedExecutor("processes", n_shards=2)
        pids = worker_pids(executor, moft)
        assert all(alive(pid) for pid in pids)
        del executor
        gc.collect()
        assert_gone(pids)


# -- exit ----------------------------------------------------------------------

EXIT_SCRIPT = textwrap.dedent(
    """
    import os, sys
    from multiprocessing import resource_tracker

    from repro.errors import ShardExecutionError
    from repro.geometry.point import BoundingBox
    from repro.parallel import ShardedExecutor
    from repro.synth.movement import random_waypoint_moft


    def pid_of(shard):
        return {os.getpid(): float(len(shard))}


    moft = random_waypoint_moft(
        BoundingBox(0.0, 0.0, 100.0, 100.0), n_objects=30, n_instants=20,
        speed=5.0, seed=5,
    )
    executor = ShardedExecutor("processes", n_shards=2)
    pids = set(executor.aggregate_moft(moft, pid_of))
    if "unpicklable" in sys.argv:
        try:
            executor.aggregate_moft(moft, lambda shard: {})
        except ShardExecutionError:
            print("typed-error")
        pids |= set(executor.aggregate_moft(moft, pid_of))
    pids.add(resource_tracker._resource_tracker._pid)
    print("children", *sorted(pids))
    # No close(): the process just returns.
    """
)


class TestExit:
    @pytest.mark.parametrize("mode", ["plain", "unpicklable"])
    def test_process_that_never_closes_exits_promptly(self, mode, tmp_path):
        script = tmp_path / "fanout_and_return.py"
        script.write_text(EXIT_SCRIPT)
        env = dict(os.environ, PYTHONPATH=SRC)
        # Piped: every process holding the pipe must end for this call
        # to return at all.
        done = subprocess.run(
            [sys.executable, str(script), mode],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=10,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.split("\n")
        assert ("typed-error" in lines) == (mode == "unpicklable")
        children = [
            int(pid)
            for line in lines
            if line.startswith("children")
            for pid in line.split()[1:]
        ]
        assert len(children) >= 2  # worker(s) and the resource tracker
        assert_gone(children, within_s=5.0)
