"""The columnar ingest path: atomic batch checks and snapshots that extend.

Two statements:

* a malformed batch — ragged, non-numeric, non-finite, with an
  unhashable id or repeating an ``(object, t)`` already buffered —
  raises :class:`~repro.errors.IngestError` before any sample is
  routed: counters, buffer and late channel are as they were, and the
  corrected batch then goes through as if the bad one had never been
  sent;
* every published snapshot's table carries the segment index (and the
  object codes) a from-scratch build of its columns would give, each
  sealed delta is the buffered samples the watermark passed in
  ``(t, repr(oid))`` order, and no submit, close or snapshot scan ever
  sorts a table from scratch (``SegmentIndex.build``) — quantified over
  disorder, allowed lateness, a memory-mapped base table and object ids
  whose value order is not their ``repr`` order.
"""

from __future__ import annotations

import math
import random
import tempfile
from contextlib import contextmanager
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IngestError
from repro.gis import POLYGON
from repro.ingest import IngestConfig, StoreSpec, StreamingIngestor
from repro.mo.moft import MOFT, SegmentIndex
from repro.synth import CityConfig, build_city
from repro.temporal.calendar import hourly
from repro.temporal.timedim import TimeDimension

from tests.ingest.conftest import count_payload

pytestmark = pytest.mark.ingest


def counters(ingestor: StreamingIngestor) -> dict:
    names = ("ingest_batches", "samples_submitted", "samples_late")
    return {name: ingestor.obs.count(name) for name in names}


class TestAtomicRejection:
    """Nothing of a bad batch is routed; the corrected one goes through."""

    def ingestor(self, fig1_stream) -> StreamingIngestor:
        return StreamingIngestor(
            fig1_stream.gis, fig1_stream.time,
            config=IngestConfig(allowed_lateness=1.0),
        )

    @pytest.mark.parametrize(
        "oids, ts",
        [
            (["A", "B", "C"], [100.0, 101.0, math.nan]),
            (["A", "B", "C"], [100.0, 101.0, math.inf]),
            (["A", "B", "C"], [100.0, 101.0, "noon"]),
            (["A", "B", "C"], [100.0, 101.0, None]),
            (["A", "B", ["C"]], [100.0, 101.0, 102.0]),
            (["A", "B", "C"], [100.0, 101.0, [102.0, 103.0]]),
        ],
        ids=["nan", "inf", "text", "none", "unhashable", "nested"],
    )
    def test_bad_batch_routes_nothing(self, fig1_stream, oids, ts):
        ingestor = self.ingestor(fig1_stream)
        before = counters(ingestor)
        with pytest.raises(IngestError):
            ingestor.submit(oids, ts, [0.0] * 3, [0.0] * 3)
        assert counters(ingestor) == before
        assert ingestor.late_samples() == ()
        assert repr(ingestor).count("buffered=0")
        # The corrected retry is accepted whole and seals cleanly.
        report = ingestor.submit(
            ["A", "B", "C"], [100.0, 101.0, 102.0], [0.0] * 3, [0.0] * 3
        )
        assert (report.submitted, report.late) == (3, 0)
        assert report.ingested + report.buffered == 3
        final = ingestor.close()
        assert final.rows == 3
        assert ingestor.obs.count("samples_submitted") == 3

    def test_ragged_batch_routes_nothing(self, fig1_stream):
        ingestor = self.ingestor(fig1_stream)
        with pytest.raises(IngestError, match="ragged"):
            ingestor.submit(["A", "B"], [1.0], [0.0, 0.0], [0.0, 0.0])
        assert counters(ingestor) == counters(self.ingestor(fig1_stream))

    def test_late_channel_untouched_by_a_bad_batch(self, fig1_stream):
        """A bad batch whose first sample is late adds nothing to the
        side channel: the check comes before the late mask."""
        ingestor = self.ingestor(fig1_stream)
        ingestor.submit(["A", "B"], [10.0, 20.0], [0.0, 0.0], [0.0, 0.0])
        before = counters(ingestor)
        with pytest.raises(IngestError, match="non-finite"):
            ingestor.submit(
                ["C", "D"], [1.0, math.nan], [0.0, 0.0], [0.0, 0.0]
            )
        assert counters(ingestor) == before
        assert ingestor.late_samples() == ()
        report = ingestor.submit(["C"], [1.0], [0.0], [0.0])
        assert report.late == 1
        assert ingestor.late_samples() == (("C", 1.0, 0.0, 0.0),)

    @pytest.mark.parametrize(
        "first, second",
        [
            ((["A"], [100.0]), (["A"], [100.0])),
            ((["A"], [100.0]), (["C", "A", "C"], [99.0, 100.0, 98.0])),
            ((["B"], [100.0]), (["A", "C", "A"], [100.0, 99.0, 100.0])),
            ((["A", "B"], [100.0, 101.0]), (["A", "A"], [99.0, 100.0])),
        ],
        ids=["again", "once-in-batch", "within-batch", "repeated-in-batch"],
    )
    def test_buffered_twin_routes_nothing(self, fig1_stream, first, second):
        """A sample whose ``(object, t)`` is already buffered — sent
        twice, or twice in one batch — is refused before routing: sealed
        beside its twin it would make every later seal fail."""
        ingestor = StreamingIngestor(
            fig1_stream.gis, fig1_stream.time,
            config=IngestConfig(allowed_lateness=5.0),
        )
        oids, ts = first
        ingestor.submit(oids, ts, [0.0] * len(ts), [0.0] * len(ts))
        before = counters(ingestor), repr(ingestor)
        oids, ts = second
        ones = [1.0] * len(ts)
        with pytest.raises(IngestError, match="object 'A' at t=100.0"):
            ingestor.submit(oids, ts, ones, ones)
        assert (counters(ingestor), repr(ingestor)) == before
        assert ingestor.late_samples() == ()
        # Later batches still seal, and the twin never reaches a table.
        for t in (103.0, 110.0, 120.0):
            ingestor.submit(["A", "D"], [t, t], [0.0, 0.0], [0.0, 0.0])
        final = ingestor.close()
        assert final.rows == len(first[1]) + 6
        assert ingestor.obs.count("samples_ingested") == final.rows

    @settings(max_examples=60, deadline=None)
    @given(
        samples=st.lists(
            st.tuples(st.sampled_from("ABC"), st.integers(0, 9)),
            min_size=1, max_size=24,
        ),
        batch=st.integers(1, 5),
        lateness=st.sampled_from([0.0, 2.0, 5.0]),
    )
    def test_refused_exactly_when_a_twin_would_buffer(
        self, fig1_stream, samples, batch, lateness
    ):
        """Against a model of the watermark and the buffer: a batch is
        refused exactly when one of its rows above the watermark repeats
        a buffered ``(object, t)`` or another such row; every other batch
        is routed, and the stream always closes."""
        ingestor = StreamingIngestor(
            fig1_stream.gis, fig1_stream.time,
            config=IngestConfig(allowed_lateness=lateness),
        )
        watermark, newest, buffered, accepted = -math.inf, -math.inf, set(), 0
        for at in range(0, len(samples), batch):
            rows = [(oid, float(t)) for oid, t in samples[at:at + batch]]
            kept = [row for row in rows if row[1] > watermark]
            twin = len(set(kept)) < len(kept) or not buffered.isdisjoint(kept)
            oids, ts = zip(*rows)
            zeros = [0.0] * len(ts)
            if twin:
                with pytest.raises(IngestError, match="duplicate sample"):
                    ingestor.submit(oids, ts, zeros, zeros)
                continue
            ingestor.submit(oids, ts, zeros, zeros)
            accepted += len(kept)
            buffered |= set(kept)
            newest = max([newest] + [t for _, t in rows])
            watermark = max(watermark, newest - lateness)
            buffered = {row for row in buffered if row[1] > watermark}
        assert ingestor.close().rows == accepted

    def test_sealed_twin_is_late_not_refused(self, fig1_stream):
        """The twin of a sealed sample arrives at or below the watermark:
        the late channel takes it, as any late sample."""
        ingestor = self.ingestor(fig1_stream)
        ingestor.submit(["A"], [100.0], [0.0], [0.0])
        ingestor.submit(["B"], [105.0], [0.0], [0.0])
        report = ingestor.submit(["A"], [100.0], [1.0], [1.0])
        assert report.late == 1
        assert ingestor.late_samples() == (("A", 100.0, 1.0, 1.0),)


# -- the snapshot property ----------------------------------------------------

#: Ids whose value order is not their ``repr`` order (9 < 10 but
#: "10" < "9"), str and int mixed, and tuples (which a columnar file
#: cannot hold, so only the stream brings them).
OIDS = (9, 10, "9", "a", "B", 100, (1, 2), (1, "x"), (0,))


@st.composite
def schedules(draw, n_instants: int):
    oids = draw(st.lists(
        st.sampled_from(OIDS), min_size=1, max_size=6, unique=True
    ))
    samples = []
    for oid in oids:
        instants = draw(st.lists(
            st.integers(0, n_instants - 1), min_size=1, max_size=6,
            unique=True,
        ))
        for t in instants:
            samples.append((oid, float(t)))
    plain = [s for s in samples if not isinstance(s[0], tuple)]
    base = draw(st.integers(0, len(plain))) if plain else 0
    return {
        "samples": samples,
        "base": plain[:base],
        "seed": draw(st.integers(0, 2**16)),
        "batch": draw(st.integers(1, 6)),
        "lateness": draw(st.sampled_from([0.0, 1.0, 3.0, 100.0])),
    }


@contextmanager
def index_build_spy():
    """Count from-scratch index sorts (:meth:`SegmentIndex.build`) while
    the block runs."""
    calls = []
    build = SegmentIndex.build.__func__

    def spy(cls, oids, codes, t):
        calls.append(t.shape[0])
        return build(cls, oids, codes, t)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SegmentIndex, "build", classmethod(spy))
        yield calls


@contextmanager
def publish_spy():
    """Record the delta of every publish (each :meth:`MOFT.appended`
    call) while the block runs, as ``(oid, t, x, y)`` rows."""
    published = []
    appended = MOFT.appended

    def spy(table, *columns):
        published.append(list(zip(*(c.tolist() for c in columns))))
        return appended(table, *columns)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MOFT, "appended", spy)
        yield published


def sealed_reference(schedule, batches, lateness):
    """What each seal must publish, by the watermark rules alone: the
    buffered samples the watermark passed, by ``(t, repr(oid))``."""
    watermark = max_t = -math.inf
    buffer, deltas = [], []
    for batch in batches:
        fresh = [s for s in batch if s[1] > watermark]
        buffer += fresh
        max_t = max([max_t] + [s[1] for s in fresh])
        watermark = max(watermark, max_t - lateness)
        ready = [s for s in buffer if s[1] <= watermark]
        buffer = [s for s in buffer if s[1] > watermark]
        if ready:
            deltas.append(sorted(ready, key=lambda s: (s[1], repr(s[0]))))
    if buffer:
        deltas.append(sorted(buffer, key=lambda s: (s[1], repr(s[0]))))
    return deltas


def assert_same_index(table: MOFT) -> None:
    t, x, y = table.as_arrays()
    fresh = MOFT.from_columns(
        table.oid_column(), t, x, y, name=table.name, validate=False
    )
    got, want = table.segment_index(), fresh.segment_index()
    assert got.oids.tolist() == want.oids.tolist()
    np.testing.assert_array_equal(got.perm, want.perm)
    np.testing.assert_array_equal(got.offsets, want.offsets)
    np.testing.assert_array_equal(table.object_codes(), fresh.object_codes())


class City:
    """A 4x4 city over 50 hourly instants (its repr kept short: it is
    part of every falsifying example)."""

    def __init__(self) -> None:
        city = build_city(
            CityConfig(cols=4, rows=4), rng=np.random.default_rng(11)
        )
        self.gis, self.box = city.gis, city.bounding_box
        self.time = TimeDimension.from_mapping(
            hourly(datetime(2006, 1, 9, 0, 0)), range(50)
        )

    def __repr__(self) -> str:
        return "City(4x4, 50 hourly instants)"


@pytest.fixture(scope="module")
def city() -> City:
    return City()


class TestSnapshotsExtend:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_snapshots_index_like_a_fresh_build(self, city, data):
        case = data.draw(schedules(len(city.time.instants)))
        coords = random.Random(case["seed"])
        box = city.box
        rows = [
            (oid, t, coords.uniform(box.min_x, box.max_x),
             coords.uniform(box.min_y, box.max_y))
            for oid, t in case["samples"]
        ]
        base_keys = set(case["base"])
        base_rows = [r for r in rows if r[:2] in base_keys]
        stream = [r for r in rows if r[:2] not in base_keys]
        random.Random(case["seed"]).shuffle(stream)
        batches = [
            stream[i:i + case["batch"]]
            for i in range(0, len(stream), case["batch"])
        ]
        with tempfile.TemporaryDirectory() as folder:
            base = None
            if base_rows:
                path = Path(folder) / "base.moft"
                MOFT.from_columns(*zip(*base_rows), name="FM").save(path)
                base = MOFT.load(path)
            ingestor = StreamingIngestor(
                city.gis, city.time, moft_name="FM", base=base,
                config=IngestConfig(allowed_lateness=case["lateness"]),
                store_specs=(StoreSpec("day", "Ln", POLYGON),),
            )
            snapshots, answers = [], []
            with index_build_spy() as walks, publish_spy() as published:
                for batch in batches:
                    ingestor.submit(*map(list, zip(*batch)))
                    snapshots.append(ingestor.snapshot())
                    answers.append(count_payload(snapshots[-1].context()))
                snapshots.append(ingestor.close())
                answers.append(count_payload(snapshots[-1].context()))
            assert walks == []
            assert published == sealed_reference(
                stream, batches, case["lateness"]
            )
            for snapshot, answer in zip(snapshots, answers):
                if len(snapshot.moft):
                    assert_same_index(snapshot.moft)
                t, x, y = snapshot.moft.as_arrays()
                fresh = MOFT.from_columns(
                    snapshot.moft.oid_column(), t, x, y, name="FM"
                )
                context = snapshot.context()
                reference = type(context)(context.gis, context.time, fresh)
                assert answer == count_payload(reference)
            del base, snapshots, ingestor
