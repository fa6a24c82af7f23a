"""The per-disc box test drops only pieces the disc kernel would drop.

:func:`~repro.poi.segmentation.batch_stops` and the per-trajectory walk
hand a disc's kernel call only the pieces whose grown box meets the
disc's grown box.  The margin has to cover the near-tangent root error
of the quadratic, ``O(sqrt(eps) |p0 - c|)``, so the adversary here is
a piece just outside the grown box: tangent-parallel to an axis, at
coordinates from ``1e-3`` to ``1e6``, short or starting far away.  For
every piece the box test leaves out, :func:`disc_clip_scalar` must say
``hi <= lo``; the pieces it keeps must clip bit for bit as the scalar
fold does; and the stops of a batch must not move when the test is
switched off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.kernels import disc_clip_batch, disc_clip_scalar
from repro.geometry.point import Point
from repro.mo.moft import SegmentBatch
from repro.poi import segmentation
from repro.poi.segmentation import _DISC_MARGIN, _near, _reach, batch_stops

pytestmark = pytest.mark.poi

SCALES = [1e-3, 1.0, 1e3, 1e6]


def near_tangent_pieces(cx, cy, r):
    """Axis-parallel pieces whose grown boxes sit a hair outside, on and
    a hair inside the disc's grown box on each side, short and long
    (starting up to ``1e4 r`` away), plus stationary ones."""
    scale = max(abs(cx), abs(cy), r)
    x0, y0, x1, y1 = [], [], [], []
    for lengths in (0.5, 3.0, 1e4):
        reach = lengths * r
        for factor in (0.9, 1.0, 1.1, 1.5, 2.0, 3.0):
            # The piece's own growth depends on its coordinates: take
            # the disc's scale as an upper estimate of both.
            gap = factor * _DISC_MARGIN * (scale + scale + 4 * reach)
            for side in (-1.0, 1.0):
                level = side * (r + gap)
                # Horizontal, above/below; vertical, right/left.
                for start, end in ((-reach, reach), (-reach, 0.0), (0.1 * r, reach)):
                    x0 += [cx + start, cx + level]
                    y0 += [cy + level, cy + start]
                    x1 += [cx + end, cx + level]
                    y1 += [cy + level, cy + end]
        for step in (1, 2, 4):
            level = r + step * _DISC_MARGIN * scale
            x0.append(cx + level)
            y0.append(cy)
            x1.append(cx + level)
            y1.append(cy)
    # Gaps fixed whatever the margin, from 1e-13 to 1e-5 of the scale,
    # on pieces that start 1e4-1e5 radii away and end around the tangent
    # point: where the quadratic's rounding reaches farthest (the kernel
    # clips some of them at gaps of several 1e-12).
    for far in (1e4, 3e4, 1e5):
        for gap in np.geomspace(1e-13, 1e-5, 41) * scale:
            for end in (-0.5, 0.0, 0.5):
                x0.append(cx - far * r)
                x1.append(cx + end * r)
                y0.append(cy + r + gap)
                y1.append(cy + r + gap)
    return tuple(np.array(v, dtype=np.float64) for v in (x0, y0, x1, y1))


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("offset", [0.0, 0.37])
def test_left_out_pieces_miss_the_disc(scale, offset):
    cx, cy, r = offset * scale + 11.0 * offset, -offset * scale, 0.05 * scale
    x0, y0, x1, y1 = near_tangent_pieces(cx, cy, r)
    near = _near(_reach(x0, y0, x1, y1), cx, cy, r)
    left_out = np.setdiff1d(np.arange(x0.size), near)
    # The adversary bites: both sides of the test are populated.
    assert near.size and left_out.size
    for i in left_out.tolist():
        lo, hi = disc_clip_scalar(cx, cy, r, x0[i], y0[i], x1[i], y1[i])
        assert hi <= lo, (i, x0[i], y0[i], x1[i], y1[i])
    lo, hi = disc_clip_batch(cx, cy, r, x0[near], y0[near], x1[near], y1[near])
    for k, i in enumerate(near.tolist()):
        want = disc_clip_scalar(cx, cy, r, x0[i], y0[i], x1[i], y1[i])
        assert (lo[k], hi[k]) == want


@pytest.mark.parametrize("scale", SCALES)
def test_batch_stops_do_not_see_the_box_test(scale, monkeypatch):
    """Stops of near-tangent and crossing pieces, with the box test and
    with it switched off (every piece to every disc)."""
    cx, cy, r = 0.3 * scale, 0.2 * scale, 0.05 * scale
    x0, y0, x1, y1 = near_tangent_pieces(cx, cy, r)
    # Every object is one piece; half of them cross the disc for real.
    n = x0.size
    x1[::2], y1[::2] = cx, cy
    t0 = np.arange(n, dtype=np.float64)
    batch = SegmentBatch(
        t0, t0 + 1.0, x0, y0, x1, y1, np.arange(n), 0, np.arange(n + 1)
    )
    pois = {"a": Point(cx, cy), "b": Point(cx + 1.5 * r, cy)}
    want_off = None
    for switched_off in (False, True):
        if switched_off:
            monkeypatch.setattr(
                segmentation, "_near",
                lambda reach, cx, cy, r: np.arange(reach[0].shape[0]),
            )
        found = batch_stops(batch, pois, radius=r)
        if want_off is None:
            want_off = found
        else:
            for a, b in zip(found, want_off):
                assert a.tobytes() == b.tobytes()
    assert want_off[0].size > 0


def test_infinite_radius_keeps_every_piece():
    reach = _reach(*(np.array([1e6, -3.0]),) * 4)
    assert _near(reach, 0.0, 0.0, np.inf).tolist() == [0, 1]
