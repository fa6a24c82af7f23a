"""A scan under a row mask is the scan of the restricted table.

The through leaf, the dwell leaf and the shard task read a time
restriction as a row mask over the table they are given
(:meth:`~repro.mo.moft.SegmentIndex.masked`) instead of building
``moft.mask_rows(mask)``.  The differential property pins that to the
child-table scan: the answer, ``scan_rows``, ``objects_scanned`` and
``objects_matched``, under both kernel backends, with and without early
exit and the sample prefilter, on tables below and above
``BATCH_MIN_ROWS``; and the dwell leaf's sum bit for bit.  Tables hold
single-sample objects, masks drop whole objects, and instant sets have
gaps (a kept row joins the next kept row across them, as in a child
table).

The work-count guards pin what the leaf no longer does: no
``MOFT.mask_rows`` call on a restricted query; no ``MIXED`` sample of an
object a decided-inside sample already proves reaches the containment
kernel; no segment whose box covers only ``OUTSIDE`` cells reaches the
broad phase, which still counts its rejections.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import kernels
from repro.geometry.kernels import set_kernel_backend
from repro.gis import ALL, POINT, POLYGON, GISDimensionInstance, GISDimensionSchema
from repro.gis import LayerHierarchy
from repro.mo import MOFT
from repro.mo import moft as moft_module
from repro.obs import EvaluationStats
from repro.parallel import ShardedExecutor
from repro.pietql import PietQLExecutor
from repro.query import evaluator
from repro.query.aggregate import total_dwell_time
from repro.query.evaluator import (
    TrajectoryIntersectionCounter,
    counter_for,
    geometric_subquery,
    objects_through,
)
from repro.query.region import EvaluationContext
from repro.temporal.timedim import TimeDimension

from tests.conftest import finest_labels
from tests.query.test_batched_scan import SHAPES
from tests.query.test_one_through_path import (
    BINDINGS,
    CONSTRAINTS,
    DAY2,
    MISALIGNED,
    TARGET,
    city_context,
    pietql_text,
)

FIGURES = ("scan_rows", "objects_scanned", "objects_matched")
N_INSTANTS = 40


@st.composite
def tables(draw):
    """A table of up to 8 objects with 0-40 samples each (so from one
    row to well over ``BATCH_MIN_ROWS``), on lattice points that hit the
    shapes' edges and vertices or anywhere near them, with one of: a
    DURING instant set with gaps, a window, a random row mask."""
    counts = draw(st.lists(st.integers(0, 40), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    oids, ts, xs, ys = [], [], [], []
    for k, n in enumerate(counts):
        instants = np.sort(rng.choice(N_INSTANTS, size=n, replace=False))
        on_lattice = rng.random(n) < 0.5
        for axis in (xs, ys):
            axis.extend(np.where(
                on_lattice, rng.integers(-1, 12, n), rng.uniform(-2.0, 12.0, n)
            ).tolist())
        oids.extend([f"o{k}"] * n)
        ts.extend(instants.astype(float).tolist())
    if not oids:
        oids, ts, xs, ys = ["o0"], [0.0], [4.0], [4.0]
    moft = MOFT.from_columns(oids, ts, xs, ys)
    kind = draw(st.sampled_from(["instants", "window", "rows"]))
    t, _, _ = moft.as_arrays()
    if kind == "instants":
        kept = draw(st.sets(st.integers(0, N_INSTANTS - 1), max_size=N_INSTANTS))
        mask = moft.instants_mask({float(i) for i in kept})
    elif kind == "window":
        lo = draw(st.integers(0, N_INSTANTS - 1))
        hi = draw(st.integers(lo, N_INSTANTS - 1))
        mask = (t >= lo) & (t <= hi)
    else:
        mask = rng.random(len(moft)) < draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))
    return moft, mask


def scan(counter, moft, rows=None):
    stats = EvaluationStats()
    got = counter.matching_objects(moft, stats, rows=rows)
    return got, {name: stats.count(name) for name in FIGURES}


@pytest.fixture
def numpy_backend():
    """The decided-cell guards need a label grid: ``numpy``, whatever
    backend the run starts under."""
    set_kernel_backend("numpy")
    yield
    set_kernel_backend("numpy")


class TestMaskedEqualsChild:
    @settings(max_examples=60, deadline=None)
    @given(tables())
    def test_through(self, table):
        moft, mask = table
        child = moft.mask_rows(mask)
        try:
            for backend in ("numpy", "scalar"):
                set_kernel_backend(backend)
                for strategy in ("serial", "grid"):
                    counter = TrajectoryIntersectionCounter(SHAPES, strategy)
                    for batch_min in (evaluator.BATCH_MIN_ROWS, 0):
                        with pytest.MonkeyPatch.context() as patch:
                            patch.setattr(evaluator, "BATCH_MIN_ROWS", batch_min)
                            masked = scan(counter, moft, mask)
                            plain = scan(counter, child)
                        assert masked == plain, (backend, strategy)
        finally:
            set_kernel_backend("numpy")

    @settings(max_examples=60, deadline=None)
    @given(tables(), st.sampled_from([7, 16, moft_module.SEGMENT_BATCH_ROWS]))
    def test_segments_and_batches(self, table, batch_rows):
        assert_segments_equal(*table, batch_rows)

    @pytest.mark.parametrize("batch_rows", [2, 7, 16])
    def test_objects_without_rows_at_either_end(self, batch_rows):
        """Empty runs before the first kept row, between batches, and
        after the last one; an object longer than a batch."""
        sizes = {"a": 3, "b": 20, "c": 1, "d": 4, "e": 5}
        keep = {"a": False, "b": True, "c": True, "d": False, "e": False}
        rows = [
            (oid, float(t), float(t % 7), float(t % 5))
            for oid, n in sizes.items() for t in range(n)
        ]
        moft = MOFT.from_columns(*map(list, zip(*rows)))
        mask = np.array([keep[row[0]] for row in rows])
        assert_segments_equal(moft, mask, batch_rows)
        counter = TrajectoryIntersectionCounter(SHAPES)
        assert scan(counter, moft, mask) == scan(counter, moft.mask_rows(mask))

    @settings(max_examples=60, deadline=None)
    @given(tables(), st.integers(0, N_INSTANTS - 1), st.integers(0, N_INSTANTS - 1))
    def test_dwell_is_bit_identical(self, table, lo, span):
        moft, _ = table
        window = (float(lo), float(min(lo + span, N_INSTANTS - 1)))
        tmin, tmax = moft.time_range()
        if window[1] < tmin or window[0] > tmax:
            return  # (validated_window refuses a window off the table)
        t, _, _ = moft.as_arrays()
        child = moft.mask_rows((t >= window[0]) & (t <= window[1]))

        def dwell(table, window):
            context = EvaluationContext(lattice_gis(), lattice_time(), table)
            return total_dwell_time(
                context, ("Ln", POLYGON), [], "FM", window=window,
                use_preagg=False,
            )

        assert dwell(moft, window) == dwell(child, None)


def assert_segments_equal(moft, mask, batch_rows):
    """``moft.segments(rows=mask)`` gives the child table's segments in
    its batches, each segment's object the same."""
    child = moft.mask_rows(mask)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(moft_module, "SEGMENT_BATCH_ROWS", batch_rows)
        masked = list(moft.segments(rows=mask))
        plain = list(child.segments())
    assert len(masked) == len(plain)
    for a, b in zip(masked, plain):
        for name in ("t0", "t1", "x0", "y0", "x1", "y1"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        # (Positions in the parent's index, against the child's.)
        assert np.array_equal(moft.oids[a.obj], child.oids[b.obj])


def lattice_gis():
    schema = GISDimensionSchema(
        [LayerHierarchy("Ln", [(POINT, POLYGON), (POLYGON, ALL)])], []
    )
    gis = GISDimensionInstance(schema)
    for gid, polygon in SHAPES.items():
        gis.add_geometry("Ln", POLYGON, gid, polygon)
    return gis


def lattice_time():
    return TimeDimension.from_explicit_rollups(
        [("timeId", t, "hour", t // 4) for t in range(N_INSTANTS)]
    )


# -- work-count guards ----------------------------------------------------------


@pytest.fixture(scope="module")
def stored():
    return city_context(with_store=True)


@pytest.fixture(scope="module")
def bare():
    return city_context(with_store=False)


@pytest.fixture
def mask_rows_calls(monkeypatch):
    calls = Counter()
    original = MOFT.mask_rows

    def counted(self, mask):
        calls["mask_rows"] += 1
        return original(self, mask)

    monkeypatch.setattr(MOFT, "mask_rows", counted)
    return calls


class TestNoChildTable:
    def test_restricted_serial_leaf(self, bare, mask_rows_calls):
        assert objects_through(
            bare, TARGET, CONSTRAINTS, window=MISALIGNED, use_preagg=False
        )
        result = PietQLExecutor(bare, BINDINGS).execute(
            pietql_text(f"day = '{DAY2}'")
        )
        assert result.count > 0
        assert mask_rows_calls["mask_rows"] == 0

    def test_serial_shard_task(self, bare, mask_rows_calls):
        with ShardedExecutor("serial", n_shards=2) as executor:
            want = objects_through(
                bare, TARGET, CONSTRAINTS, window=MISALIGNED,
                use_preagg=False, executor=executor,
            )
            # (The first fan-out cuts the resident shards.)
            mask_rows_calls.clear()
            got = objects_through(
                bare, TARGET, CONSTRAINTS, window=MISALIGNED,
                use_preagg=False, executor=executor,
            )
        assert got == want and got
        assert mask_rows_calls["mask_rows"] == 0

    def test_hybrid_sliver(self, stored, mask_rows_calls):
        slivers = stored.obs.count("sliver_scan_rows")
        got = objects_through(stored, TARGET, CONSTRAINTS, window=MISALIGNED)
        assert stored.obs.count("sliver_scan_rows") > slivers
        assert mask_rows_calls["mask_rows"] == 0
        assert got == objects_through(
            stored, TARGET, CONSTRAINTS, window=MISALIGNED, use_preagg=False
        )

    def test_dwell_leaf(self, bare, mask_rows_calls):
        assert total_dwell_time(
            bare, TARGET, CONSTRAINTS, "FM", window=MISALIGNED,
            use_preagg=False,
        ) > 0
        assert mask_rows_calls["mask_rows"] == 0


def answer_counter(context, strategy="grid"):
    ids = geometric_subquery(context, TARGET, CONSTRAINTS)
    return counter_for(
        context, TARGET, ids, strategy, rows=len(context.moft("FM"))
    )


class TestDecidedWorkIsSkipped:
    @pytest.mark.parametrize("restricted", [False, True])
    def test_proven_objects_send_no_sample_to_the_kernel(
        self, bare, monkeypatch, numpy_backend, restricted
    ):
        moft = bare.moft("FM")
        counter = answer_counter(bare)
        t, x, y = moft.as_arrays()
        mask = (t >= MISALIGNED[0]) & (t <= MISALIGNED[1])
        mask |= not restricted
        label = counter._pass.labels.of(x, y)
        codes = moft.object_codes()
        proven = np.zeros(moft.oids.shape[0], dtype=bool)
        proven[codes[mask & (label >= 0)]] = True
        mixed = mask & (label == kernels.MIXED)
        # Non-vacuous: proven objects have undecided samples to skip.
        assert (mixed & proven[codes]).any()
        owners = {}
        for xi, yi, code in zip(x[mask].tolist(), y[mask].tolist(), codes[mask]):
            owners.setdefault((xi, yi), set()).add(int(code))
        seen = []
        real = evaluator._contained

        def spy(passes, xs, ys):
            seen.extend(zip(xs.tolist(), ys.tolist()))
            return real(passes, xs, ys)

        monkeypatch.setattr(evaluator, "_contained", spy)
        got = counter.matching_objects(moft, EvaluationStats(), rows=mask)
        for point in seen:
            assert not all(proven[c] for c in owners[point]), point
        # (Fewer than a batch of them: one containment call takes all.)
        assert len(seen) == int((mixed & ~proven[codes]).sum())
        monkeypatch.undo()
        assert got == counter.matching_objects(moft.mask_rows(mask))

    @pytest.mark.parametrize("restricted", [False, True])
    def test_outside_segments_skip_the_broad_phase(
        self, bare, monkeypatch, numpy_backend, restricted
    ):
        moft = bare.moft("FM")
        t, _, _ = moft.as_arrays()
        mask = (t >= MISALIGNED[0]) & (t <= MISALIGNED[1])
        mask |= not restricted
        # (The prefilter would prove every object of this table.)
        counter = answer_counter(bare, "serial")
        labels = finest_labels(counter._pass)
        boxes = np.concatenate(
            [np.stack(batch.boxes()) for batch in moft.segments()], axis=1
        )
        # Non-vacuous: some segments lie in cells decided outside.
        assert labels.outside(*boxes).any()
        calls = []
        real = evaluator.candidate_pairs

        def spy(bins, *boxes):
            calls.append(labels.outside(*boxes).any())
            return real(bins, *boxes)

        monkeypatch.setattr(evaluator, "candidate_pairs", spy)
        counter.matching_objects(moft, EvaluationStats(), rows=mask)
        assert calls and not any(calls)

    @pytest.mark.parametrize("restricted", [False, True])
    def test_rejection_identity(
        self, bare, monkeypatch, numpy_backend, restricted
    ):
        """Every segment a round reads is pending once: the rejections
        and the pairs make up segments read x polygons, the segments
        skipped before the broad phase included.  (The dwell leaf, which
        has no early exit, reads every segment:
        ``test_batched_scan.py``.)"""
        moft = bare.moft("FM")
        counter = answer_counter(bare, "serial")
        finest_labels(counter._pass)
        t, _, _ = moft.as_arrays()
        mask = (t >= MISALIGNED[0]) & (t <= MISALIGNED[1])
        mask |= not restricted
        kept = np.bincount(moft.object_codes()[mask])
        segments = int(np.maximum(kept - 1, 0).sum())
        read = []
        real = evaluator._segments_of

        def spy(*args):
            for batch in real(*args):
                read.append(len(batch))
                yield batch

        monkeypatch.setattr(evaluator, "_segments_of", spy)
        stats = EvaluationStats()
        counter.matching_objects(moft, stats, rows=mask)
        width = len(counter.geometries)
        pairs = stats.count("bbox_rejections") + stats.count("segment_checks")
        assert pairs == sum(read) * width
        assert 0 < sum(read) <= segments
        # (Plain ints: the counters end up in JSON.)
        assert {type(v) for v in stats.counters.values()} == {int}
        assert stats.count("segment_checks") > 0
