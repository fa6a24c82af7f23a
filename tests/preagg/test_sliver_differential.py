"""The hybrid scans only its sliver's own segments, and stays exact.

A misaligned window is answered as the store's covered granule run plus
a scan of the rows :meth:`~repro.preagg.PreAggStore._sliver_scan_mask`
keeps: the rows of the window segments with an endpoint in a sliver.
An object sampled in one sliver keeps that sliver's rows plus its one
window row on the run side; an object sampled in both keeps its whole
window history.  Pinned here, on ``load_world("synth")`` (day granules)
and on Figure 1 (granules of two instants), each with short-lived
objects added across granule boundaries (so that some are sampled in a
sliver only) and single-sample objects:

* **exact** — over windows with one sliver, two slivers, none (both
  ends on granule boundaries) and no covered run (no hybrid), the
  store-served answer equals the serial window scan, in process and on
  ``ShardedExecutor("serial", n_shards=2)``;
* **smaller** — the mask keeps every sliver row and only window rows,
  never more rows than the whole window histories of the objects with
  a sliver row, and for a window with one sliver at most the sliver's
  rows plus one row per object;
* **the two-sliver rule** — an object whose straight line from its first
  to its last run sample crosses a polygon its path avoids: a mask of
  its two sliver blocks alone joins them into that line and counts it,
  the whole window history does not.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.gis import (
    ALL,
    POINT,
    POLYGON,
    POLYLINE,
    GISDimensionInstance,
    GISDimensionSchema,
    LayerHierarchy,
)
from repro.mo import MOFT
from repro.parallel import ShardedExecutor
from repro.preagg import PreAggStore
from repro.query.evaluator import (
    TrajectoryIntersectionCounter,
    objects_through,
    resolve_through,
)
from repro.query.region import EvaluationContext
from repro.service.worlds import load_world
from repro.synth import figure1_instance
from repro.temporal.timedim import TimeDimension

TARGET = ("Ln", POLYGON)
CONSTRAINTS = [("intersects", ("Lr", POLYLINE))]


def with_extras(moft: MOFT, seed: int, boundaries) -> MOFT:
    """``moft`` plus objects sampled at two to four consecutive instants
    across one of the granule ``boundaries`` (first instants) and
    objects with a single sample, each sample anywhere in the table's
    extent: long segments, which cross polygons with neither endpoint
    inside, from a granule into the next."""
    rng = np.random.default_rng(seed)
    t, x, y = moft.as_arrays()
    oids = moft.oid_column().tolist()
    ts, xs, ys = t.tolist(), x.tolist(), y.tolist()
    instants = np.unique(t).tolist()
    box = moft.bbox()
    for k in range(36):
        if k % 3 == 0:
            at = [instants[int(rng.integers(0, len(instants)))]]
        else:
            cut = instants.index(float(rng.choice(boundaries)))
            length = int(rng.integers(2, 5))
            start = max(0, cut - int(rng.integers(1, length)))
            at = instants[start:start + length]
        for instant in at:
            oids.append(f"extra{k}")
            ts.append(instant)
            xs.append(float(rng.uniform(box.min_x, box.max_x)))
            ys.append(float(rng.uniform(box.min_y, box.max_y)))
    return MOFT.from_columns(oids, ts, xs, ys, name=moft.name)


class World:
    """A table with :func:`with_extras`' objects added, a context
    without stores and one with a store over ``Ln``, and the store's
    granules as ``(first, last)`` instants."""

    def __init__(self, gis, time, level: str, moft: MOFT, seed: int) -> None:
        partition = time.granules(level)
        self.spans = [
            tuple(map(int, partition.span(code, code)))
            for code in range(len(partition))
        ]
        t, _, _ = moft.as_arrays()
        inner = [first for first, _ in self.spans[1:] if first in t]
        moft = with_extras(moft, seed, inner)
        self.table = moft.name
        self.plain = EvaluationContext(gis, time, {moft.name: moft})
        self.warm = EvaluationContext(gis, time, {moft.name: moft})
        self.store = PreAggStore(
            moft, time, level, gis.layer("Ln").elements(POLYGON),
            layer="Ln", kind=POLYGON,
        )
        self.warm.register_preagg(self.store)


@lru_cache(maxsize=None)
def world(name: str) -> World:
    if name == "synth":
        context = load_world("synth").context
        return World(
            context.gis, context.time, "day", context.moft("FM"), 5
        )
    instance = figure1_instance()
    # Granules of two instants (the table samples 1..6), so that a
    # window can end inside one at either end.
    time = TimeDimension.from_explicit_rollups(
        [("timeId", t, "hour", t // 2) for t in range(8)]
    )
    return World(instance.gis, time, "hour", instance.moft, 6)


@st.composite
def windows(draw, spans):
    """A window over granule run ``i..j``, widened into the granule
    before it (a left sliver), after it (a right sliver), both or
    neither — or a window inside one granule (no covered run)."""
    shape = draw(st.sampled_from(["left", "right", "both", "aligned", "inside"]))
    i = draw(st.integers(0, len(spans) - 1))
    j = draw(st.integers(i, len(spans) - 1))
    start, end = float(spans[i][0]), float(spans[j][1])

    def inside(code, low):
        """An instant or a half instant strictly inside granule ``code``
        (its first or last instant left out, by ``low``)."""
        first, last = spans[code]
        points = [h / 2 for h in range(2 * first + 1, 2 * last + 1)]
        if not low:
            points = [p for p in points if p > first]
        return draw(st.sampled_from(points)) if points else None

    if shape == "inside":
        first, last = spans[i]
        if last > first:
            start = draw(st.sampled_from([first, first + 0.5]))
            end = draw(st.sampled_from([last - 0.5, float(last)]))
            if (start, end) == (first, last):
                end = last - 0.5
    if shape in ("left", "both") and i > 0:
        start = inside(i - 1, low=False) or start
    if shape in ("right", "both") and j < len(spans) - 1:
        end = inside(j + 1, low=True) or end
    return (start, end)


def sliver_rows(world: World, window, run):
    """Window rows, left and right sliver rows of the world's table."""
    moft = world.warm.moft(world.table)
    t, _, _ = moft.as_arrays()
    lo, hi = world.store._span(run)
    rows = (t >= window[0]) & (t <= window[1])
    return rows, rows & (t < lo), rows & (t > hi)


@pytest.mark.parametrize("name", ["synth", "fig1"])
@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_hybrid_equals_the_serial_window_scan(name, data):
    world_ = world(name)
    window = data.draw(windows(world_.spans))
    tmin, tmax = world_.plain.moft(world_.table).time_range()
    assume(window[1] >= tmin and window[0] <= tmax)
    args = (TARGET, CONSTRAINTS, world_.table)
    expected = objects_through(
        world_.plain, *args, window=window, use_preagg=False
    )
    assert objects_through(world_.warm, *args, window=window) == expected
    with ShardedExecutor("serial", n_shards=2) as executor:
        assert objects_through(
            world_.warm, *args, window=window, executor=executor
        ) == expected
    leaf = resolve_through(world_.warm, *args, window=window)
    if leaf.store is None or leaf.sliver_mask is None:
        return
    mask = leaf.sliver_mask
    rows, left, right = sliver_rows(world_, window, leaf.granules)
    sliver = left | right
    assert not (mask & ~rows).any()  # window rows only
    assert not (sliver & ~mask).any()  # every sliver row
    owner = leaf.moft.object_codes()
    touched = np.bincount(owner[sliver], minlength=leaf.moft.oids.shape[0]) > 0
    assert leaf.sliver_rows <= int((rows & touched[owner]).sum())
    if not (left.any() and right.any()):
        assert leaf.sliver_rows <= int(sliver.sum()) + int(touched.sum())


class TestBothSlivers:
    """Granules ``{0, 1}``, ``{2, 3}``, ``{4, 5}``, ``{6, 7}`` and the
    window ``[1, 6]``: run ``1..2``, the slivers ``{1}`` and ``{6}``.
    Object ``a`` goes round the square ``P`` from ``(0, 0)`` at ``t = 2``
    to ``(10, 0)`` at ``t = 5``, so the line between its first and last
    run samples crosses ``P`` and its path never does; object ``b``
    sits inside ``P`` at ``t = 1``."""

    P = Polygon([Point(4, -1), Point(6, -1), Point(6, 1), Point(4, 1)])
    ROWS = [
        ("a", 1.0, -5.0, 20.0), ("a", 2.0, 0.0, 0.0), ("a", 3.0, 0.0, 10.0),
        ("a", 4.0, 10.0, 10.0), ("a", 5.0, 10.0, 0.0), ("a", 6.0, 15.0, 20.0),
        ("b", 1.0, 5.0, 0.0), ("b", 2.0, 5.0, 30.0),
    ]
    WINDOW = (1.0, 6.0)

    def contexts(self):
        schema = GISDimensionSchema(
            [LayerHierarchy("Ln", [(POINT, POLYGON), (POLYGON, ALL)])], []
        )
        gis = GISDimensionInstance(schema)
        gis.add_geometry("Ln", POLYGON, "P", self.P)
        time = TimeDimension.from_explicit_rollups(
            [("timeId", t, "hour", t // 2) for t in range(8)]
        )
        moft = MOFT.from_columns(*map(list, zip(*self.ROWS)), name="FM")
        plain = EvaluationContext(gis, time, {"FM": moft})
        warm = EvaluationContext(gis, time, {"FM": moft})
        warm.register_preagg(PreAggStore(
            moft, time, "hour", {"P": self.P}, layer="Ln", kind=POLYGON,
        ))
        return moft, plain, warm

    def test_whole_history_is_exact(self):
        moft, plain, warm = self.contexts()
        args = (TARGET, [], "FM")
        expected = objects_through(
            plain, *args, window=self.WINDOW, use_preagg=False
        )
        assert set(expected) == {"b"}
        leaf = resolve_through(warm, *args, window=self.WINDOW)
        assert leaf.store is not None and leaf.granules == (1, 2)
        a_rows = np.array([row[0] == "a" for row in self.ROWS])
        assert np.array_equal(leaf.sliver_mask & a_rows, a_rows)
        assert objects_through(warm, *args, window=self.WINDOW) == expected
        with ShardedExecutor("serial", n_shards=2) as executor:
            assert objects_through(
                warm, *args, window=self.WINDOW, executor=executor
            ) == expected

    def test_two_blocks_would_count_a(self):
        moft, _, _ = self.contexts()
        blocks = np.array([
            oid == "a" and instant in (1.0, 2.0, 5.0, 6.0)
            for oid, instant, _, _ in self.ROWS
        ])
        counter = TrajectoryIntersectionCounter({"P": self.P})
        assert "a" in counter.matching_objects(moft, rows=blocks)
