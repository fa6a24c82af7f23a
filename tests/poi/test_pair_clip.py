"""The disc kernel over (disc, piece) pairs, and the chunked scan on it.

:func:`~repro.geometry.kernels.disc_clip_batch` takes one disc for all
rows (scalars ``cx, cy, r``) or one disc per row (arrays).  Row for row,
a pair call must equal the per-disc calls bit for bit under both kernel
backends: on the near-tangent pieces of ``test_disc_margin``, on
stationary pieces and with an infinite radius.

:func:`~repro.poi.segmentation.batch_stops` clips its pair list in
chunks of ``_PAIR_CHUNK`` pairs.  A batch whose pairs fill several
chunks must give the stops of the per-trajectory walk
(:func:`~repro.poi.segment_stops_moves`), with the same
``disc_kernel_segments`` and ``stop_episodes``.  Its candidates are
then ordered by one stable sort of a :func:`~repro.mo.moft.packed_key`,
which must give the stable ``lexsort`` by (object, start, end), also
where the key needs densifying.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.geometry import Point
from repro.geometry.kernels import disc_clip_batch, set_kernel_backend
from repro.geometry.poi import Poi
from repro.mo import MOFT
from repro.mo.moft import packed_key
from repro.mo.trajectory import LinearInterpolationTrajectory
from repro.obs import PipelineStats
from repro.poi import segment_stops_moves, segmentation

from tests.poi.test_disc_margin import near_tangent_pieces

pytestmark = pytest.mark.poi

BACKENDS = ("numpy", "scalar")

#: ``(cx, cy, r)``: centres off the diagonal, so swapped coordinates show.
DISCS = [
    (0.3, 0.2, 0.05),
    (1.0, 0.6, 1.0),
    (370.0 + 4.07, -370.0, 50.0),
    (-2e6, 1e6, 3e5),
    (5.0, -7.0, math.inf),
]


def pieces_of(cx, cy, r, rng):
    """Near-tangent pieces of a finite disc (random ones for an infinite
    radius), pieces from the disc to about its mirror image ``(cy, cx)``
    and stationary pieces inside, on and outside the disc."""
    if math.isinf(r):
        ends = [rng.normal(0.0, 1e3, size=(4, 200))]
        still = [(cx, cy), (1e9, -1e9)]
    else:
        ends = [near_tangent_pieces(cx, cy, r)]
        still = [(cx, cy), (cx + r, cy), (cx, cy - r), (cx + 2 * r, cy)]
        near = rng.uniform(-2.0 * r, 2.0 * r, size=(4, 200))
        ends.append(near + [[cx], [cy], [cy], [cx]])
    sx, sy = np.array(still, dtype=np.float64).T
    ends.append((sx, sy, sx, sy))
    return tuple(np.concatenate(column) for column in zip(*ends))


@pytest.mark.parametrize("backend", BACKENDS)
def test_pair_rows_equal_per_disc_calls(backend):
    set_kernel_backend(backend)
    rng = np.random.default_rng(11)
    per_disc, rows = [], []
    for disc in DISCS:
        ends = pieces_of(*disc, rng)
        per_disc.append(disc_clip_batch(*disc, *ends))
        rows.append(np.column_stack((np.tile(disc, (ends[0].size, 1)), *ends)))
    rows = np.concatenate(rows)
    # Interleave the discs, so that no call sees a block of one disc.
    order = rng.permutation(rows.shape[0])
    lo, hi = np.empty(order.size), np.empty(order.size)
    lo[order], hi[order] = disc_clip_batch(*rows[order].T)
    assert lo.tobytes() == np.concatenate([p[0] for p in per_disc]).tobytes()
    assert hi.tobytes() == np.concatenate([p[1] for p in per_disc]).tobytes()
    # The adversary bites: pieces in and out of every disc.
    assert (hi > lo).any() and (hi <= lo).any()


def test_pair_rows_agree_across_backends():
    rng = np.random.default_rng(12)
    rows = np.concatenate([
        np.column_stack((np.tile(disc, (len(ends[0]), 1)), *ends))
        for disc in DISCS for ends in [pieces_of(*disc, rng)]
    ])
    found = []
    for backend in BACKENDS:
        set_kernel_backend(backend)
        found.append(b"".join(v.tobytes() for v in disc_clip_batch(*rows.T)))
    assert found[0] == found[1]


# -- the chunked scan -----------------------------------------------------------

#: Overlapping and nested discs whose boundaries pass through lattice points.
POIS = {
    "a": Poi(Point(0.0, 0.0), 2.0),
    "b": Poi(Point(1.5, -0.5), 1.5),
    "c": Poi(Point(-1.0, 1.0), 1.0),
    "d": Poi(Point(0.0, 0.0), 0.5),
}


def wandering_table(n_objects=12, n_samples=1200, seed=5):
    """Mean-reverting walks on a 1/8 lattice about the discs, with
    pauses (stationary pieces): most pieces near several discs."""
    rng = np.random.default_rng(seed)
    oids, ts, xs, ys = [], [], [], []
    for i in range(n_objects):
        xy = np.zeros(2)
        for t in range(n_samples):
            if rng.random() > 0.2:
                xy = 0.85 * xy + rng.normal(0.0, 0.6, size=2)
            x, y = np.round(xy * 8.0) / 8.0
            oids.append(f"o{i}")
            ts.append(float(t))
            xs.append(float(x))
            ys.append(float(y))
    return MOFT.from_columns(oids, ts, xs, ys)


@pytest.fixture(scope="module")
def wandering():
    return wandering_table()


@pytest.mark.parametrize("chunk", [None, 1000, 7])
@pytest.mark.parametrize("min_dwell", [0.0, 3.0])
def test_chunked_scan_equals_the_walk(wandering, chunk, min_dwell, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(segmentation, "_PAIR_CHUNK", chunk)
    (batch,) = wandering.segments()
    obs = PipelineStats()
    obj, start, end, poi = segmentation.batch_stops(
        batch, POIS, min_dwell=min_dwell, obs=obs
    )
    # The pairs fill several chunks of the shipped size.
    assert obs.count("disc_kernel_segments") > 3 * segmentation._PAIR_CHUNK
    names = sorted(POIS, key=repr)
    oids = wandering.segment_index().oids
    got = list(zip(
        [oids[i] for i in obj.tolist()], start.tolist(), end.tolist(),
        [names[p] for p in poi.tolist()],
    ))
    walk_obs, want = PipelineStats(), []
    for oid in oids:
        trajectory = LinearInterpolationTrajectory(wandering.trajectory_sample(oid))
        want += [
            (oid, e.start, e.end, e.poi)
            for e in segment_stops_moves(
                trajectory, POIS, min_dwell=min_dwell, obs=walk_obs
            )
            if e.is_stop
        ]
    assert got == want
    assert len(want) > 100
    for name in ("disc_kernel_segments", "stop_episodes"):
        assert obs.count(name) == walk_obs.count(name), name


# -- the scan order ---------------------------------------------------------------


def scan_order(*columns):
    """The stable order of ``batch_stops``: its columns' ``np.unique``
    codes, one :func:`packed_key`, one stable sort."""
    key = packed_key(len(columns[0][1]), ((v.size, c) for v, c in columns))
    return np.argsort(key, kind="stable").tolist()


def test_scan_order_is_the_stable_lexsort():
    rng = np.random.default_rng(13)
    obj = rng.integers(0, 5, 400)
    a = rng.integers(-2, 6, 400) / 4.0
    a[::9], a[4::9] = -0.0, 0.0
    b = a + rng.integers(1, 3, 400) / 4.0
    columns = [np.unique(v, return_inverse=True) for v in (obj, a, b)]
    assert scan_order(*columns) == np.lexsort((b, a, obj)).tolist()


def test_scan_order_packs_dense_before_the_key_overflows():
    """Three columns of 2**40 values each (broadcast, never stored) do
    not fit one 64-bit key: the key is made dense between them."""
    rng = np.random.default_rng(14)
    pool = rng.integers(0, 2**40, size=(3, 6))
    codes = [rng.choice(p, 500) for p in pool]
    values = np.broadcast_to(0.0, (2**40,))
    got = scan_order(*((values, code) for code in codes))
    assert got == np.lexsort(codes[::-1]).tolist()
