"""Adversarial differential: the segmented array scan vs the walk.

The cell table of a store build (rendered by ``tests/poi/oracle.py``'s
``poi_cells``) finds the stops of all objects in array passes
(:func:`repro.poi.segmentation.batch_stops`) and attributes them to
granules in another (:func:`repro.poi.store._stop_rows`).  The
per-trajectory walk (the same module's ``object_cells``, over
:func:`~repro.poi.segment_stops_moves`) stays as the oracle: cells equal as dicts — dwell by ``==``, no tolerance — and the
same ``stop_episodes`` / ``poi_visits`` / ``disc_kernel_segments``.

The worlds are built to hit what the synthetic city does not: nested
discs, one disc under several ids whose ``repr`` order is not their
natural order, cursor truncation to exactly and to just under
``min_dwell``, a rejected candidate whose successor overlaps it, merges
by exact equality beside one-ulp misses, stops across many granules,
before the first and ending on a granule start, an infinite radius,
one- and two-sample objects, an overlap chain of thousands, and tables
cut into many segment batches.  Every world runs with the scalar tail
of the cursor rule both switched off (array passes decide everything)
and at its shipped size (small worlds never leave the scalar scan).
"""

from __future__ import annotations

import math
import time as clock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Point
from repro.geometry.kernels import kernel_backend
from repro.geometry.poi import Poi
import repro.mo.moft as moft_module
from repro.mo import MOFT
from repro.mo.trajectory import LinearInterpolationTrajectory
from repro.obs import PipelineStats
from repro.poi import segment_stops_moves, segmentation
from repro.temporal.timedim import TimeDimension

from tests.poi.oracle import object_cells, poi_cells

pytestmark = pytest.mark.poi

COUNTERS = ("stop_episodes", "poi_visits", "disc_kernel_segments")


def hours(instants, width=1):
    """Granules of ``width`` instants each over ``instants``."""
    return TimeDimension.from_explicit_rollups(
        [("timeId", t, "hour", t // width) for t in instants]
    )


def table(tracks):
    """``{oid: [(t, x, y), ...]}`` as a MOFT."""
    rows = [(oid, *p) for oid, points in tracks.items() for p in points]
    return MOFT.from_columns(*map(list, zip(*rows)))


def walked(moft, time, level, pois, radius=None, min_dwell=0.0):
    starts = np.asarray(time.granules(level).starts, dtype=np.float64)
    obs = PipelineStats()
    cells = {}
    for oid in moft.objects():
        found = object_cells(
            moft, oid, starts, pois, radius, min_dwell, obs=obs
        )
        if found:
            cells[oid] = found
    visits = sum(v for found in cells.values() for v, _ in found.values())
    if visits:
        obs.incr("poi_visits", visits)
    return cells, obs


def assert_scan_equals_walk(moft, time, level, pois, **options):
    want, walk_obs = walked(moft, time, level, pois, **options)
    for tail_runs in (0, segmentation._SCALAR_TAIL_RUNS):
        obs = PipelineStats()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(segmentation, "_SCALAR_TAIL_RUNS", tail_runs)
            got = poi_cells(moft, time, level, pois, obs=obs, **options)
        assert got == want
        for name in COUNTERS:
            assert obs.count(name) == walk_obs.count(name), name
    return want


def stops_of(moft, oid, pois, min_dwell):
    trajectory = LinearInterpolationTrajectory(moft.trajectory_sample(oid))
    return [
        (e.start, e.end, e.poi)
        for e in segment_stops_moves(trajectory, pois, min_dwell=min_dwell)
        if e.is_stop
    ]


# -- the cursor rule, on exact endpoints ---------------------------------------

#: Two radius-5 discs whose boundaries pass through lattice points: (1, 0)
#: lies on B's, (5, 0) on A's, so the kernel clamps both crossings to the
#: sample times.  ``LONG`` is inside ``A`` exactly on [0, 4] and inside
#: ``B`` exactly on [2, 8]; ``SHORT`` leaves ``B`` at 6, over (11, 0).
A, B = Poi(Point(0, 0), 5.0), Poi(Point(6, 0), 5.0)
LONG = [(0, -3, 0), (2, 1, 0), (4, 5, 0), (6, 9, 0), (8, 9, 0)]
SHORT = [(0, -3, 0), (2, 1, 0), (4, 5, 0), (6, 11, 0), (7, 30, 0)]
OVER_2, OVER_4 = math.nextafter(2.0, math.inf), math.nextafter(4.0, math.inf)


class TestCursorRule:
    @pytest.fixture(scope="class")
    def world(self):
        # 70 objects: more overlap runs than the scalar tail ever takes.
        tracks = {f"long{i}": LONG for i in range(35)}
        tracks.update({f"short{i}": SHORT for i in range(35)})
        return table(tracks), hours(range(9))

    @pytest.mark.parametrize(
        "min_dwell, long, short",
        [
            (0.0, [(0, 4, "A"), (4, 8, "B")], [(0, 4, "A"), (4, 6, "B")]),
            # SHORT's B, cut by the cursor to exactly min_dwell: kept.
            (2.0, [(0, 4, "A"), (4, 8, "B")], [(0, 4, "A"), (4, 6, "B")]),
            # Cut to one ulp under min_dwell: dropped, though B alone
            # ([2, 6]) would qualify.
            (OVER_2, [(0, 4, "A"), (4, 8, "B")], [(0, 4, "A")]),
            (4.0, [(0, 4, "A"), (4, 8, "B")], [(0, 4, "A")]),
            # A rejected: the cursor must not have advanced under B.
            (OVER_4, [(2, 8, "B")], []),
            (6.0, [(2, 8, "B")], []),
            (6.5, [], []),
        ],
    )
    def test_truncation_and_rejection(self, world, min_dwell, long, short):
        moft, time = world
        pois = {"A": A, "B": B}
        assert stops_of(moft, "long0", pois, min_dwell) == long
        assert stops_of(moft, "short0", pois, min_dwell) == short
        assert_scan_equals_walk(moft, time, "hour", pois, min_dwell=min_dwell)

    def test_one_disc_under_ids_in_repr_order(self, world):
        """``repr`` order is '9' < 10 < 9: the str wins the tie, the two
        ints never stop."""
        moft, time = world
        pois = {9: A, 10: A, "9": A, "B": B}
        assert [repr(g) for g in sorted(pois, key=repr)] == [
            "'9'", "'B'", "10", "9",
        ]
        assert stops_of(moft, "long0", pois, 0.0) == [(0, 4, "9"), (4, 8, "B")]
        cells = assert_scan_equals_walk(moft, time, "hour", pois)
        assert {gid for gid, _ in cells["long0"]} == {"9", "B"}

    def test_adjacent_places_do_not_merge(self, world):
        """C is entered at 4, the instant A is left, and with one object
        to a batch C's first piece follows A's last in the arrays: equal
        endpoints, same object — two candidates all the same."""
        moft, time = world
        pois = {"A": A, "C": Poi(Point(9, 0), 4.0)}
        assert stops_of(moft, "long0", pois, 0.0) == [(0, 4, "A"), (4, 8, "C")]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(moft_module, "SEGMENT_BATCH_ROWS", 2)
            assert_scan_equals_walk(moft, time, "hour", pois)

    def test_nested_discs(self, world):
        moft, time = world
        pois = {
            "inner": Poi(Point(0, 0), 2.0), "A": A,
            "outer": Poi(Point(0, 0), 13.0),
        }
        for min_dwell in (0.0, 1.0, 4.0, 7.9, 8.0):
            assert_scan_equals_walk(
                moft, time, "hour", pois, min_dwell=min_dwell
            )

    def test_infinite_radius(self, world):
        moft, time = world
        centres = {"p": Point(0, 0), "q": Point(50, 50)}
        cells = assert_scan_equals_walk(
            moft, time, "hour", centres, radius=math.inf
        )
        assert set(cells["long0"]) == {("p", code) for code in range(8)}


# -- interval merge: equality, never a tolerance --------------------------------


def test_merge_by_equality_and_one_ulp_apart(monkeypatch):
    """The clip parameters come from a stand-in kernel that reads them
    off the piece's start sample (``lo = x0``, ``hi = y0``), so a piece
    can end exactly at its end time (merges with the next) or one ulp
    before it (does not)."""
    monkeypatch.setattr(
        segmentation, "disc_clip_batch",
        lambda cx, cy, r, x0, y0, x1, y1, obs=None: (
            np.array(x0, dtype=float), np.array(y0, dtype=float)
        ),
    )
    under = math.nextafter(1.0, 0.0)
    tracks = {}
    for i in range(70):
        tracks[f"eq{i}"] = [(0, 0, 1), (1, 0, 1), (2, 0, 0.5), (3, 0, 0)]
        tracks[f"ulp{i}"] = [(0, 0, under), (1, 0, 1), (2, 0, 0)]
        tracks[f"gap{i}"] = [(0, 0.5, 1), (1, 0.25, 1), (2, 0, 0)]
    moft, time = table(tracks), hours(range(4))
    pois = {"p": Poi(Point(0, 0), 1.0)}
    assert stops_of(moft, "eq0", pois, 0.0) == [(0, 2.5, "p")]
    assert stops_of(moft, "ulp0", pois, 0.0) == [(0, under, "p"), (1, 2, "p")]
    assert stops_of(moft, "gap0", pois, 0.0) == [(0.5, 1, "p"), (1.25, 2, "p")]
    for min_dwell in (0.0, under, 1.0, 2.5):
        assert_scan_equals_walk(moft, time, "hour", pois, min_dwell=min_dwell)


# -- granule attribution ---------------------------------------------------------


def test_stops_across_before_and_onto_granule_starts():
    """Instants 2..9 in granules of 2: a stop from t=0 starts before the
    first granule, runs through more than three of them, and one ends
    exactly on a granule start (its last window is the one before)."""
    here, away = (0, 0), (40, 40)
    tracks = {}
    for i in range(70):
        tracks[f"long{i}"] = [(0, *here), (9, *here), (10, *away)]
        tracks[f"cross{i}"] = [(0, *away), (3, *here), (6, *here), (7, *away)]
    moft, time = table(tracks), hours(range(2, 10), width=2)
    pois = {"p": Poi(Point(0, 0), 1.0)}
    cells = assert_scan_equals_walk(moft, time, "hour", pois)
    assert [code for _, code in cells["long0"]] == [0, 1, 2, 3]
    assert cells["long0"][("p", 0)][0] == 1
    onto = table({f"s{i}": [(3, *here), (6, *here)] for i in range(70)})
    cells = assert_scan_equals_walk(onto, time, "hour", pois)
    # [3, 6] with starts 2, 4, 6, 8: windows [2, 4) and [4, 6) only.
    assert cells["s0"] == {("p", 0): (1, 1.0), ("p", 1): (0, 2.0)}


# -- hypothesis lattice -----------------------------------------------------------

#: Pythagorean radii about lattice centres: samples land on boundaries,
#: pieces graze, start and end on them; ``9`` / ``10`` / ``"9"`` share a
#: disc, ``ring`` and ``all`` nest around it, ``east`` overlaps it.
LATTICE_DISCS = {
    9: Poi(Point(0, 0), 5.0),
    10: Poi(Point(0, 0), 5.0),
    "9": Poi(Point(0, 0), 5.0),
    "ring": Poi(Point(0, 0), 10.0),
    "all": Poi(Point(0, 0), 13.0),
    "east": Poi(Point(6, 0), 5.0),
    ("tuple", 1): Poi(Point(-6, 8), 5.0),
}

lattice_samples = st.lists(
    st.tuples(
        st.integers(0, 11),                                  # object
        st.integers(0, 15),                                  # instant
        st.sampled_from([-13, -10, -6, -5, -3, 0, 1, 3, 4, 5, 6, 8, 10, 12, 13]),
        st.sampled_from([-12, -8, -5, -4, 0, 3, 4, 5, 8, 12]),
    ),
    min_size=1,
    max_size=80,
    unique_by=lambda s: (s[0], s[1]),
)


class TestLattice:
    @given(
        lattice_samples,
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
        st.sampled_from([2, 8, 1 << 14]),
    )
    @settings(deadline=None, max_examples=150)
    def test_cells(self, rows, min_dwell, batch_rows):
        """Objects of one and two samples included; ``batch_rows`` cuts
        the table into batches of one or a few objects, so overlap runs
        end on batch edges; instants 3..12 leave stops before the first
        granule and after the last."""
        moft = MOFT.from_columns(
            *map(list, zip(*((o, float(t), float(x), float(y)) for o, t, x, y in rows)))
        )
        time = hours(range(3, 13), width=3)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(moft_module, "SEGMENT_BATCH_ROWS", batch_rows)
            assert_scan_equals_walk(
                moft, time, "hour", LATTICE_DISCS, min_dwell=min_dwell
            )


# -- the degenerate tail ------------------------------------------------------------


def test_overlap_chain_of_thousands_takes_the_scalar_tail(monkeypatch):
    """Three objects zig-zag in and out of a small disc 2 500 times
    inside a huge one: one overlap run of ~2 500 candidates each.  The
    array passes must hand such runs to the scalar scan — one pass of
    numpy calls per chain link is slower than the walk this replaced
    (measured: 8 ms with the tail, 22 ms without, 18 ms the walk).  A
    spy on ``_scan_stops`` sees each object's whole chain, under either
    kernel backend; the walk is timed against the scan only under
    ``numpy``, where it has that margin (under ``scalar`` both clip in
    Python: 55 vs 64 ms, within a loaded box's noise)."""
    links = 2500
    xs = np.tile([0.0, 3.0], links)
    ts = np.arange(xs.size, dtype=float)
    tracks = {
        oid: list(zip((ts + shift).tolist(), xs.tolist(), [0.0] * xs.size))
        for oid, shift in (("a", 0.0), ("b", 0.25), ("c", 0.5))
    }
    moft, time = table(tracks), hours(range(0, 2 * links, 500), width=500)
    pois = {"small": Poi(Point(0, 0), 1.0), "huge": Poi(Point(0, 0), 1e6)}
    for min_dwell in (0.0, 0.5, 1e9):
        assert_scan_equals_walk(moft, time, "hour", pois, min_dwell=min_dwell)

    # Each object's chain (its 2 500 visits to the small disc and its
    # one stay in the huge one) reaches the scalar scan whole.
    chains = []
    scan_stops = segmentation._scan_stops

    def spy(candidates, t_min, min_dwell):
        chains.append(len(candidates))
        return scan_stops(candidates, t_min, min_dwell)

    with monkeypatch.context() as patch:
        patch.setattr(segmentation, "_scan_stops", spy)
        poi_cells(moft, time, "hour", pois, min_dwell=0.5)
    assert chains == [links + 1] * len(tracks)

    def best(run, repeats=5):
        out = math.inf
        for _ in range(repeats):
            started = clock.perf_counter()
            run()
            out = min(out, clock.perf_counter() - started)
        return out

    def walk():
        for oid in tracks:
            stops_of(moft, oid, pois, 0.5)

    if kernel_backend() == "numpy":
        scan = best(lambda: poi_cells(moft, time, "hour", pois, min_dwell=0.5))
        assert scan < best(walk)
