"""Tests for the pipeline observability module (repro.obs)."""

import pickle
import threading
import time

import pytest

from repro.obs import EvaluationStats, PipelineStats, StageTimer


class TestCounters:
    def test_start_at_zero(self):
        stats = PipelineStats()
        assert stats.count("anything") == 0

    def test_incr_and_count(self):
        stats = PipelineStats()
        assert stats.incr("hits") == 1
        assert stats.incr("hits", 4) == 5
        assert stats.count("hits") == 5
        assert stats.counters == {"hits": 5}

    def test_as_dict_includes_counters(self):
        stats = PipelineStats()
        stats.incr("a", 2)
        assert stats.as_dict()["a"] == 2


class TestStages:
    def test_stage_accumulates_calls_and_seconds(self):
        stats = PipelineStats()
        for _ in range(3):
            with stats.stage("scan"):
                time.sleep(0.001)
        timer = stats.stages["scan"]
        assert timer.calls == 3
        assert timer.seconds > 0
        assert stats.seconds("scan") == timer.seconds

    def test_stage_records_on_exception(self):
        stats = PipelineStats()
        with pytest.raises(ValueError):
            with stats.stage("boom"):
                raise ValueError("x")
        assert stats.stages["boom"].calls == 1

    def test_unentered_stage_is_zero(self):
        assert PipelineStats().seconds("nope") == 0.0

    def test_as_dict_reports_stage_suffixes(self):
        stats = PipelineStats()
        with stats.stage("scan"):
            pass
        report = stats.as_dict()
        assert report["scan_calls"] == 1
        assert report["scan_seconds"] >= 0


class TestMergeReset:
    def test_merge_folds_counters_and_stages(self):
        a, b = PipelineStats(), PipelineStats()
        a.incr("n", 1)
        b.incr("n", 2)
        b.incr("only_b")
        with b.stage("s"):
            pass
        a.merge(b)
        assert a.count("n") == 3
        assert a.count("only_b") == 1
        assert a.stages["s"].calls == 1

    def test_reset(self):
        stats = PipelineStats()
        stats.incr("n")
        with stats.stage("s"):
            pass
        stats.reset()
        assert stats.counters == {}
        assert stats.stages == {}


class TestEvaluationStats:
    def test_as_dict_carries_extra_counters(self):
        stats = EvaluationStats()
        stats.incr("vectorized_accepts", 7)
        assert stats.as_dict()["vectorized_accepts"] == 7

    def test_is_pipeline_stats(self):
        assert isinstance(EvaluationStats(), PipelineStats)


class TestThreadSafety:
    """Regression: counters used to drop increments under contention.

    Service workers, ingest submitters and caller-supplied backends
    mutate one shared observer from several threads; unlocked
    read-modify-write on the counter dict lost updates.  These tests hammer a shared instance
    from N threads and demand *exact* totals.
    """

    N_THREADS = 8
    N_INCREMENTS = 2_000

    def _hammer(self, stats, barrier):
        barrier.wait()
        for _ in range(self.N_INCREMENTS):
            stats.incr("hits")
            stats.incr("batch", 3)
            with stats.stage("scan"):
                pass
            stats.record("external", 0.001)

    def test_exact_totals_under_contention(self):
        stats = PipelineStats()
        barrier = threading.Barrier(self.N_THREADS)
        threads = [
            threading.Thread(target=self._hammer, args=(stats, barrier))
            for _ in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = self.N_THREADS * self.N_INCREMENTS
        assert stats.count("hits") == total
        assert stats.count("batch") == 3 * total
        assert stats.stages["scan"].calls == total
        assert stats.stages["external"].calls == total
        assert stats.stages["external"].seconds == pytest.approx(
            0.001 * total
        )

    def test_concurrent_merge_is_exact(self):
        target = PipelineStats()
        source = PipelineStats()
        source.incr("n", 5)
        with source.stage("s"):
            pass
        barrier = threading.Barrier(self.N_THREADS)

        def merger():
            barrier.wait()
            for _ in range(200):
                target.merge(source)

        threads = [
            threading.Thread(target=merger) for _ in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        merges = self.N_THREADS * 200
        assert target.count("n") == 5 * merges
        assert target.stages["s"].calls == merges


class TestPickling:
    """The processes backend ships stats across the pool boundary."""

    def test_roundtrip_drops_and_recreates_lock(self):
        stats = EvaluationStats()
        stats.incr("n", 7)
        with stats.stage("s"):
            pass
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.count("n") == 7
        assert clone.stages["s"].calls == 1
        # The recreated lock must actually work.
        clone.incr("n")
        assert clone.count("n") == 8


class TestSnapshotSince:
    def test_since_reports_only_deltas(self):
        stats = PipelineStats()
        stats.incr("before", 2)
        snap = stats.snapshot()
        stats.incr("before", 3)
        stats.incr("after")
        with stats.stage("scan"):
            time.sleep(0.001)
        delta = stats.since(snap)
        assert delta["before"] == 3
        assert delta["after"] == 1
        assert delta["scan_calls"] == 1
        assert delta["scan_seconds"] > 0

    def test_unchanged_figures_are_omitted(self):
        stats = PipelineStats()
        stats.incr("steady", 4)
        snap = stats.snapshot()
        assert stats.since(snap) == {}


class TestStageTimer:
    def test_record(self):
        timer = StageTimer()
        timer.record(0.25)
        timer.record(0.25)
        assert timer.calls == 2
        assert timer.seconds == 0.5
