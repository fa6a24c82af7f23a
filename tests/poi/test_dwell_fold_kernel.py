"""Bitwise equality of the batched disc kernel vs the scalar fold.

ROADMAP item 3's discipline applied to the POI layer: the vectorized
disc-clip quadratic (:func:`repro.geometry.kernels.disc_clip_batch`)
and the per-gid dwell fold built on it must produce **bit-for-bit** the
floats the pure-Python scalar path produces — same expression sequence,
same clamping branches, same IEEE-754 rounding.  Pinned here on random
sweeps, adversarial geometry (tangency, stationarity, infinite radius)
and through the whole store build under both kernel backends.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.kernels import (
    disc_clip_batch,
    disc_clip_scalar,
    set_kernel_backend,
)
from repro.poi import PoiVisitStore

from tests.poi.conftest import canon
from tests.poi.oracle import disc_dwell_scalar

pytestmark = pytest.mark.poi

finite = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    set_kernel_backend("numpy")


def batch_vs_scalar(cx, cy, r, x0, y0, x1, y1):
    lo_b, hi_b = disc_clip_batch(cx, cy, r, x0, y0, x1, y1)
    lo_s = np.empty(len(x0))
    hi_s = np.empty(len(x0))
    for i in range(len(x0)):
        lo_s[i], hi_s[i] = disc_clip_scalar(
            cx, cy, r, x0[i], y0[i], x1[i], y1[i]
        )
    assert lo_b.tobytes() == lo_s.tobytes()
    assert hi_b.tobytes() == hi_s.tobytes()
    return lo_b, hi_b


class TestClipBitwise:
    @given(data=st.data())
    @settings(max_examples=100)
    def test_random_segments(self, data):
        n = data.draw(st.integers(1, 32))
        arrays = [
            np.array(
                data.draw(
                    st.lists(finite, min_size=n, max_size=n)
                )
            )
            for _ in range(4)
        ]
        cx = data.draw(finite)
        cy = data.draw(finite)
        r = data.draw(st.floats(0.1, 50.0))
        batch_vs_scalar(cx, cy, r, *arrays)

    def test_adversarial_cases(self):
        # Tangency, stationarity inside/outside, chord through the
        # center, segment grazing the rim, zero-length pieces.
        x0 = np.array([-2.0, 0.0, 5.0, -2.0, 1.0, 0.5, -1.0, 0.7654572205906316])
        y0 = np.array([1.0, 0.0, 5.0, 0.0, 0.0, 0.5, -1.0, 0.0])
        x1 = np.array([2.0, 0.0, 5.0, 2.0, 1.0, 0.5, 1.0, 1.0])
        y1 = np.array([1.0, 0.0, 5.0, 0.0, 0.0, 0.5, 1.0, 0.0])
        lo, hi = batch_vs_scalar(0.0, 0.0, 1.0, x0, y0, x1, y1)
        # Tangent line touches at one point: empty clip (disc <= 0).
        assert (lo[0], hi[0]) == (0.0, 0.0)
        # Stationary at the center: whole piece inside.
        assert (lo[1], hi[1]) == (0.0, 1.0)
        # Stationary far away: empty.
        assert (lo[2], hi[2]) == (0.0, 0.0)
        # Chord through the center: clipped symmetric interval.
        assert 0.0 < lo[3] < hi[3] < 1.0
        # Exactly on the rim, stationary: boundary counts as inside.
        assert (lo[4], hi[4]) == (0.0, 1.0)
        # Starts inside, ends exactly on the rim: the root of the
        # quadratic is 0.9999999999999998, but the end point passes the
        # closed-disc test, so the interval is pinned to the whole piece.
        assert (lo[7], hi[7]) == (0.0, 1.0)

    def test_infinite_radius(self):
        x0 = np.array([0.0, 1.0])
        y0 = np.array([0.0, 1.0])
        x1 = np.array([5.0, 1.0])  # moving piece + stationary piece
        y1 = np.array([0.0, 1.0])
        lo, hi = batch_vs_scalar(0.0, 0.0, math.inf, x0, y0, x1, y1)
        assert lo.tolist() == [0.0, 0.0]
        assert hi.tolist() == [1.0, 1.0]

    @given(data=st.data())
    @settings(max_examples=50)
    def test_dwell_fold_bitwise(self, data):
        n = data.draw(st.integers(1, 16))
        t0 = np.sort(
            np.array(
                data.draw(
                    st.lists(
                        st.floats(0.0, 100.0, allow_nan=False),
                        min_size=n,
                        max_size=n,
                        unique=True,
                    )
                )
            )
        )
        t1 = t0 + data.draw(st.floats(0.1, 5.0))
        arrays = [
            np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
            for _ in range(4)
        ]
        cx, cy = data.draw(finite), data.draw(finite)
        r = data.draw(st.floats(0.1, 50.0))
        dt = t1 - t0
        lo, hi = disc_clip_batch(
            cx, cy, r, arrays[0], arrays[1], arrays[2], arrays[3]
        )
        batched = (hi - lo) * np.asarray(dt, dtype=np.float64)
        scalar = disc_dwell_scalar(
            cx, cy, r, arrays[0], arrays[1], arrays[2], arrays[3], dt
        )
        assert np.asarray(batched).tobytes() == np.asarray(scalar).tobytes()


class TestStoreBackendEquality:
    """The whole store build is backend-invariant, byte for byte."""

    def test_fig1_store_scalar_vs_vectorized(self, fig1_world):
        pois = dict(fig1_world.gis.layer("Lp").elements("poi"))

        def build():
            return PoiVisitStore(
                fig1_world.moft, fig1_world.time, "hour", pois, layer="Lp"
            )

        set_kernel_backend("numpy")
        vectorized = build()
        set_kernel_backend("scalar")
        scalar = build()
        assert canon(vectorized.dwell_times()) == canon(scalar.dwell_times())
        assert canon(vectorized.visit_counts()) == canon(
            scalar.visit_counts()
        )
        assert canon(vectorized.distinct_visitors()) == canon(
            scalar.distinct_visitors()
        )

    def test_city_store_scalar_vs_vectorized(self, city_world):
        city, pois, time_dim, moft = city_world
        sub = moft.restrict_objects(
            set(sorted(moft.objects(), key=repr)[:20])
        )

        def build():
            return PoiVisitStore(sub, time_dim, "day", pois, layer="Lp")

        set_kernel_backend("numpy")
        vectorized = build()
        set_kernel_backend("scalar")
        scalar = build()
        assert canon(vectorized.dwell_times()) == canon(scalar.dwell_times())
        assert canon(vectorized.visit_counts()) == canon(
            scalar.visit_counts()
        )
