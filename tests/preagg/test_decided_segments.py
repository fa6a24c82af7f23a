"""A segment in cells of one label is decided, bit for bit.

:meth:`~repro.geometry.kernels.PolygonPass.dwell_pairs` answers a
segment whose box maps only to cells decided inside a polygon with its
``dt`` and a hit, with no broad phase and no kernel call.  Each test
below runs the same computations twice, on passes that label their cells
at the first call (*labelled*) and on passes that never do (*bare*: the
undecided path), and compares the bytes:

* a full :class:`~repro.preagg.PreAggStore` build (every ``CellTable``
  column);
* an ``update()`` delta: a store built over the early rows, then the
  rest appended;
* ``window_dwell`` on a misaligned window (the sliver), over every other
  geometry id;
* the dwell leaf's total (``total_dwell_time(..., use_preagg=False)``)
  over the whole table and the same window.

Worlds: Figure 1, the hypothesis lattice tables and the jittered tiling
of ``tests/query/test_batched_scan.py``, and the 10k-sample city.  Figure 1
and the lattice tables have fewer samples than label cells, so the
*labelled* side builds the grid at once rather than by the
``labels_for`` rule.  Under ``--kernel-backend=scalar`` the *labelled*
side is compared with the scalar reference itself.
"""

from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings

from repro.geometry.kernels import PolygonPass
from repro.gis import POLYGON
from repro.mo import MOFT
from repro.obs import PipelineStats
from repro.preagg import PreAggStore
from repro.query.aggregate import total_dwell_time
from repro.query.region import EvaluationContext
from repro.synth import (
    CityConfig,
    build_city,
    figure1_instance,
    install_city_pois,
    stop_biased_moft,
)
from repro.temporal.calendar import hourly
from repro.temporal.timedim import TimeDimension

from tests.conftest import finest_labels
from tests.query.test_batched_scan import jittered_world, lattice_world, samples


def table_bytes(store):
    """Every column of the store's cell table, as bytes."""
    return [
        (name, value.tobytes() if isinstance(value, np.ndarray) else value)
        for name, value in zip(store._table._fields, store._table)
    ]


def split(moft):
    """The rows up to the middle instant as a new table, and the rest
    as columns to append to it."""
    t, x, y = moft.as_arrays()
    oids = moft.oid_column()
    early = t <= np.median(np.unique(t))
    head = MOFT.from_columns(
        oids[early].tolist(), t[early], x[early], y[early], name=moft.name
    )
    return head, (oids[~early].tolist(), t[~early], x[~early], y[~early])


def answers(world, labelled, obs):
    """The four computations on ``world``, as bytes: on passes with a
    label grid from their first call, or on passes with none."""
    context, moft_name, time, level, window = world()
    moft = context.moft(moft_name)
    polygons = context.gis.layer("Ln").elements(POLYGON)
    rule = (lambda self, points: finest_labels(self)) if labelled else (
        lambda self, points: None
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PolygonPass, "labels_for", rule)
        options = dict(layer="Ln", kind=POLYGON, obs=obs)
        store = PreAggStore(moft, time, level, polygons, **options)
        head, rest = split(moft)
        grown = PreAggStore(head, time, level, polygons, **options)
        head.extend_columns(*rest)
        assert grown.update() == ("delta" if len(rest[1]) else "fresh")
        some = sorted(polygons, key=repr)[::2]
        dwell = [
            total_dwell_time(
                context, ("Ln", POLYGON), [], moft_name, window=span,
                use_preagg=False, stats=obs,
            )
            for span in (None, window)
        ]
        return {
            "build": table_bytes(store),
            "update": table_bytes(grown),
            "window": np.float64(store.window_dwell(some, *window)).tobytes(),
            "leaf": np.array(dwell).tobytes(),
        }


def assert_same(world, decides=True):
    obs = PipelineStats()
    assert answers(world, True, obs) == answers(world, False, PipelineStats())
    if decides:
        assert obs.count("cell_decided_segments") > 0


def figure1():
    context = figure1_instance().context()
    # Granules of two instants: a window can end inside one.
    time = TimeDimension.from_explicit_rollups(
        [("timeId", t, "hour", t // 2) for t in range(1, 7)]
    )
    return context, "FMbus", time, "hour", (2.5, 5.0)


def city():
    built = build_city(
        CityConfig(cols=6, rows=6), rng=np.random.default_rng(20060109)
    )
    time = TimeDimension.from_mapping(
        hourly(datetime(2006, 1, 9, 0, 0)), range(100)
    )
    moft = stop_biased_moft(install_city_pois(built), 100, 100)
    assert len(moft) == 10_000
    context = EvaluationContext(built.gis, time, moft)
    return context, "FM", time, "day", (30.5, 81.5)


def lattice(rows):
    def world():
        gis, time, moft = lattice_world(rows)
        t0, t1 = moft.time_range()
        window = (min(t0 + 1.5, t1), t1)
        return EvaluationContext(gis, time, moft), "FM", time, "hour", window

    return world


def jittered():
    gis, time, moft = jittered_world()
    return EvaluationContext(gis, time, moft), "FM", time, "hour", (5.5, 21.0)


class TestLabelledEqualsBare:
    def test_figure1(self):
        assert_same(figure1)

    def test_city(self):
        assert_same(city)

    def test_jittered_tiling(self):
        assert_same(jittered)

    @given(samples)
    @settings(deadline=None, max_examples=40)
    def test_lattice_tables(self, rows):
        assert_same(lattice(rows), decides=False)

    def test_lattice_table_with_decided_segments(self):
        """Few drawn tables put a segment in decided cells (the notched
        square's east half): one that does, beside one that crosses."""
        rows = [
            ("A", 0, 7.0, 7.0), ("A", 1, 8.0, 7.0), ("A", 2, 8.0, 6.0),
            ("A", 5, 7.0, 6.0), ("B", 0, 3.0, 3.0), ("B", 6, 7.0, 7.0),
        ]
        assert_same(lattice(rows))
