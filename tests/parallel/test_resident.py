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
from repro.geometry.point import BoundingBox, Point
from repro.geometry.polygon import Polygon
from repro.gis import NODE, POLYGON, POLYLINE
from repro.mo.moft import MOFT
from repro.obs import PipelineStats
from repro.parallel import RetryPolicy, ShardedExecutor, ShardedPietQLExecutor
from repro.parallel.executor import RESIDENT_TABLES
from repro.parallel.shm import MAX_OPEN_SHARDS, leaked_segments
from repro.query.evaluator import (
    TrajectoryIntersectionCounter,
    execute_through,
    objects_through,
    resolve_through,
)
from repro.query.planner import (
    CostModel,
    plan_count_objects_through,
    run_plan,
)
from repro.query.poi import poi_visit_counts
from repro.query.region import EvaluationContext
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
    table already had its segment index."""
    indexed = shard._segments is not None
    shard.segment_index()
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
        with ShardedExecutor("processes", n_shards=2, obs=obs) as executor:

            def check(which, **kwargs):
                expected = counter.matching_objects(which)
                for _ in range(5):
                    got = executor.matching_objects(counter, which, **kwargs)
                    assert got == expected

            check(table)
            assert counts.both == (1, 1)
            table.add("late", 3.5, 50.0, 50.0)
            check(table)
            assert counts.both == (2, 2)
            table.extend_columns(["later"] * 2, [1.0, 2.0], [30.0, 60.0], [30.0, 60.0])
            check(table)
            assert counts.both == (3, 3)
            check(table, n_shards=3)
            assert counts.both == (4, 4)
            check(other)
            assert counts.both == (5, 5)
            check(table)  # still resident beside the second table
            assert counts.both == (5, 5)
        # Every fan-out published, and unlinked, a block of its own.
        assert obs.count("zero_copy_blocks") == 30
        assert obs.count("shard_cache_misses") == 5
        assert obs.count("shard_cache_hits") == 25

    def test_worker_keeps_table_and_segment_index(self, moft):
        # One worker, so that both shards land on it every time.
        with ShardedExecutor("processes", n_shards=2, max_workers=1) as ex:
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
            assert not executor.holds_shards(moft, first.shard_count)
            assert run_plan(first, executor) == expected
            assert executor.holds_shards(moft, first.shard_count)
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
                ops = resolve_through(
                    context, instants=instants, use_preagg=False, **query
                )
                assert ops.ids
                assert len(ops.table) == len(moft.restrict_instants(instants))
                expected = execute_through(ops, False).matched
                got = execute_through(ops, False, executor).matched
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

    def test_coordinator_side_map_is_bounded_too(self, counter):
        # ``serial`` with zero-copy forced opens the shards right here.
        tables = [small_moft(200 + i, n_objects=12) for i in range(6)]
        with ShardedExecutor("serial", n_shards=2, zero_copy=True) as ex:
            for table in tables:
                ex.matching_objects(counter, table)
        assert len(shm._OPEN) <= MAX_OPEN_SHARDS
        assert count_mappings(None)[os.getpid()] <= MAX_OPEN_SHARDS

    def test_a_dead_table_takes_its_shards_along(self, counter):
        kept, dropped = small_moft(300), small_moft(301)
        executor = ShardedExecutor("serial", n_shards=2, zero_copy=True)
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
            with ShardedExecutor("serial", n_shards=3, zero_copy=True) as ex:
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
        with ShardedExecutor("processes", n_shards=2, obs=obs) as executor:
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
        assert obs.count("zero_copy_blocks") == 3

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
        executor = ShardedPietQLExecutor(
            fig1_context, FIG1_BINDINGS, backend="processes", n_shards=2
        )
        with executor.sharded:
            # (Its condition tasks ship the executor itself.)
            assert executor.execute(text).count == 5
            twin = pickle.loads(pickle.dumps(executor))
            assert twin.sharded.backend._pool is None
            assert not twin.sharded._resident
            with twin.sharded:
                assert twin.execute(text).count == 5

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
