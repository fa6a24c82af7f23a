"""Zero-copy shard routing: exactness, payload accounting, no leaks.

The shared-memory layer must be invisible in the answers (bit-equal to
the pickled path and the serial scan), visible in the byte counters
(descriptor-sized payloads), and leak-free under every exit path —
including worker crashes and injected fault storms.  The leak oracle is
``/dev/shm`` itself: every test sweeps it before and after.
"""

import numpy as np
import pytest

from repro.errors import ShardExecutionError
from repro.faults import FaultPlan
from repro.geometry.point import BoundingBox, Point
from repro.geometry.polygon import Polygon
from repro.obs import PipelineStats
from repro.parallel import RetryPolicy, ShardedExecutor
from repro.parallel.shm import (
    ShardBlock,
    create_shard_block,
    leaked_segments,
    moft_from_descriptor,
)
from repro.query.evaluator import TrajectoryIntersectionCounter
from repro.synth.movement import random_waypoint_moft

N_OBJECTS = 50
N_INSTANTS = 20


@pytest.fixture(scope="module")
def moft():
    world = random_waypoint_moft(
        BoundingBox(0.0, 0.0, 100.0, 100.0),
        n_objects=N_OBJECTS,
        n_instants=N_INSTANTS,
        speed=5.0,
        seed=31,
    )
    world.as_arrays()
    return world


@pytest.fixture(autouse=True)
def no_leaks():
    """Every test runs between two /dev/shm sweeps."""
    before = leaked_segments()
    yield
    assert leaked_segments() == before


REGION = Polygon([Point(20, 20), Point(70, 20), Point(70, 70), Point(20, 70)])


class TestDescriptors:
    def test_round_trip_per_shard(self, moft):
        shards = moft.partition_by_objects(4)
        block, descriptors = create_shard_block(shards)
        try:
            assert len(descriptors) == len(shards)
            for shard, descriptor in zip(shards, descriptors):
                assert descriptor.rows == len(shard)
                clone = moft_from_descriptor(descriptor)
                assert list(clone.tuples()) == list(shard.tuples())
                assert clone.objects() == shard.objects()
        finally:
            block.close()

    def test_views_are_zero_copy(self, moft):
        shards = moft.partition_by_objects(2)
        block, descriptors = create_shard_block(shards)
        try:
            clone = moft_from_descriptor(descriptors[0])
            t, x, y = clone.as_arrays()
            # Backed by the shared mapping, not a private copy.
            assert not t.flags.owndata
            assert not x.flags.owndata and not y.flags.owndata
        finally:
            block.close()

    def test_block_close_is_idempotent(self, moft):
        block, _ = create_shard_block(moft.partition_by_objects(2))
        assert block.name in leaked_segments()
        block.close()
        block.close()
        assert block.name not in leaked_segments()

    def test_context_manager_unlinks(self, moft):
        with create_shard_block(moft.partition_by_objects(2))[0] as block:
            assert block.name in leaked_segments()
        assert block.name not in leaked_segments()


class TestDifferential:
    def test_matching_objects_exact_across_routes(self, moft):
        counter = TrajectoryIntersectionCounter({"region": REGION})
        expected = ShardedExecutor("serial").matching_objects(counter, moft)
        for backend, zero_copy in (
            ("serial", True),
            ("processes", True),
            ("processes", False),
        ):
            obs = PipelineStats()
            executor = ShardedExecutor(
                backend, n_shards=3, obs=obs, zero_copy=zero_copy
            )
            assert executor.matching_objects(counter, moft) == expected
            if zero_copy:
                assert obs.count("zero_copy_blocks") == 1

    def test_mmap_loaded_world_matches_in_memory(self, moft, tmp_path):
        """Differential oracle over the full raw-speed stack.

        A world saved to the columnar format, loaded back by mmap and
        fanned out through shared-memory shards must answer exactly like
        the original in-memory world scanned serially.
        """
        from repro.mo.moft import MOFT

        counter = TrajectoryIntersectionCounter({"region": REGION})
        expected = ShardedExecutor("serial").matching_objects(counter, moft)

        path = tmp_path / "world.moft"
        moft.save(path)
        loaded = MOFT.load(path)
        assert list(loaded.tuples()) == list(moft.tuples())

        assert (
            ShardedExecutor("serial").matching_objects(counter, loaded)
            == expected
        )
        obs = PipelineStats()
        executor = ShardedExecutor(
            "processes", n_shards=3, obs=obs, zero_copy=True
        )
        assert executor.matching_objects(counter, loaded) == expected
        assert obs.count("zero_copy_blocks") == 1

    def test_exotic_oids_fall_back_to_pickle(self, moft):
        from repro.mo.moft import MOFT

        exotic = MOFT("exotic")
        for (oid, t, x, y) in moft.tuples():
            exotic.add((oid, "v2"), t, x, y)  # tuple oids: not encodable
        obs = PipelineStats()
        executor = ShardedExecutor(
            "serial", n_shards=3, obs=obs, zero_copy=True
        )
        counter = TrajectoryIntersectionCounter({"region": REGION})
        expected = ShardedExecutor("serial").matching_objects(counter, exotic)
        assert executor.matching_objects(counter, exotic) == expected
        assert obs.count("zero_copy_fallbacks") == 1
        assert obs.count("zero_copy_blocks") == 0


class TestPayloadAccounting:
    def test_bytes_counters_populated(self, moft):
        def run(zero_copy):
            obs = PipelineStats()
            executor = ShardedExecutor(
                "serial",
                n_shards=4,
                obs=obs,
                zero_copy=zero_copy,
                track_payload_bytes=True,
            )
            counter = TrajectoryIntersectionCounter({"region": REGION})
            executor.matching_objects(counter, moft)
            return obs

        zc = run(True)
        pickled = run(False)
        assert 0 < zc.count("peak_shard_payload_bytes") < 4096
        assert zc.count("bytes_serialized") > 0
        # The pickled payload carries the rows; zero-copy only the name
        # and range.
        assert (
            pickled.count("peak_shard_payload_bytes")
            > 10 * zc.count("peak_shard_payload_bytes")
        )

    def test_untracked_runs_record_nothing(self, moft):
        obs = PipelineStats()
        executor = ShardedExecutor(
            "serial", n_shards=2, obs=obs, zero_copy=True
        )
        counter = TrajectoryIntersectionCounter({"region": REGION})
        executor.matching_objects(counter, moft)
        assert obs.count("bytes_serialized") == 0
        assert obs.count("peak_shard_payload_bytes") == 0


class TestNoLeaks:
    def test_unlinked_after_worker_crash(self, moft):
        plan = FaultPlan.always("raise", n_tasks=6)
        executor = ShardedExecutor(
            "serial", n_shards=3, zero_copy=True, fault_plan=plan
        )
        counter = TrajectoryIntersectionCounter({"region": REGION})
        with pytest.raises(ShardExecutionError):
            executor.matching_objects(counter, moft)
        # The autouse fixture asserts /dev/shm is clean afterwards.

    @pytest.mark.faults
    def test_chaos_sweep_never_leaks(self, moft):
        """Seeded fault storms over the zero-copy processes route."""
        counter = TrajectoryIntersectionCounter({"region": REGION})
        expected = ShardedExecutor("serial").matching_objects(counter, moft)
        before = leaked_segments()
        for seed in range(4):
            plan = FaultPlan.random(
                seed, n_tasks=5, rate=0.4, max_attempts=4
            )
            executor = ShardedExecutor(
                "processes" if seed % 2 else "serial",
                n_shards=3,
                zero_copy=True,
                failure_mode="degrade" if seed % 2 else "retry",
                retry_policy=RetryPolicy(max_retries=2),
                fault_plan=plan,
            )
            try:
                answer = executor.matching_objects(counter, moft)
            except ShardExecutionError:
                pass
            else:
                assert answer == expected
            assert leaked_segments() == before, f"leak under seed {seed}"
