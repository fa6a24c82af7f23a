"""Vectorized segment-vs-polygon clip kernels.

The hot loops of the dwell/THROUGH machinery — the pre-agg builder, the
moving-object operations and the overlay path — all reduce to "clip many
trajectory segments against one polygon".  The scalar path
(:meth:`Polygon.clip_segment` / :meth:`Polygon.intersects_segment`)
costs hundreds of Python bytecodes per segment.  This module batches it.

**Exact by construction.**  The kernel never *approximates* the scalar
answer; it partitions segments into three classes with a conservative,
vectorized test and only answers the easy ones itself:

* status ``0`` — provably outside: the segment's bbox misses the
  polygon's, or the segment provably touches no boundary edge and its
  midpoint parity says *outside*.  Scalar result: no clip intervals,
  no intersection.
* status ``1`` — provably inside, far from the boundary: no possible
  edge contact and start/mid/end all at least ``2 x tolerance`` from
  every edge, midpoint parity *inside*.  Scalar result: one interval
  ``(0.0, 1.0)``.
* status ``2`` — everything else (possible boundary contact, degenerate
  segments, near-boundary geometry): the kernel calls the scalar
  methods, so these are bit-identical trivially.

For statuses 0/1 the equivalence argument: a conservatively *clean*
segment has no boundary contact, so the scalar cut set is ``[0, 1]`` and
its answer is ``contains_point(midpoint)``; for points ``>= 2 x
tolerance`` from every edge the boundary/near-boundary branches cannot
fire and the vectorized even-odd parity evaluates the *same float
expressions* as :func:`~repro.geometry.polygon._point_in_ring`, hence
bit-equal.  A clean segment lies in a single component, so inside/
outside extends from the midpoint to the whole segment, which also
settles ``intersects_segment``.

Backends (``REPRO_CLIP_KERNEL`` env var or :func:`set_kernel_backend`):

========== =====================================================
``auto``   the default: pure numpy
``numpy``  vectorized classification in numpy
``numba``  jit-compiled classification loops (falls back to
           ``numpy`` when numba is not installed)
``scalar`` classify everything as status 2 — the old per-segment
           path, kept as the differential-testing baseline
========== =====================================================
"""

from __future__ import annotations

import math
import os
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.segment import Segment

#: Relative half-width of the sign-uncertainty band around cross
#: products: a computed cross product within ``_SEP_EPS x magnitude`` of
#: zero is treated as "could be either sign" and routed to the scalar
#: fallback.  Double arithmetic errs by a few ulps (~1e-16 relative), so
#: 1e-9 is a ~1e7-fold safety margin.
_SEP_EPS = 1e-9

#: Segment batch size for the pairwise (segment x edge) work arrays.
_CHUNK = 4096

_BACKENDS = ("auto", "numpy", "numba", "scalar")
_backend: Optional[str] = None


def set_kernel_backend(name: Optional[str]) -> str:
    """Select the classification backend; returns the *effective* one.

    ``None`` re-resolves from the ``REPRO_CLIP_KERNEL`` environment
    variable (defaulting to ``auto``).  Requesting ``numba`` without
    numba installed degrades to ``numpy`` — the fallback the ISSUE's
    feature flag promises.
    """
    global _backend
    if name is None:
        name = os.environ.get("REPRO_CLIP_KERNEL", "auto").strip() or "auto"
    name = name.lower()
    if name not in _BACKENDS:
        raise GeometryError(
            f"unknown clip-kernel backend {name!r}; "
            f"choose from {', '.join(_BACKENDS)}"
        )
    if name == "auto":
        name = "numpy"
    if name == "numba" and _numba_classify() is None:
        name = "numpy"
    _backend = name
    return name


def kernel_backend() -> str:
    """The effective classification backend (resolving lazily)."""
    if _backend is None:
        return set_kernel_backend(None)
    return _backend


_numba_compiled = None
_numba_failed = False


def _numba_classify():
    """The jitted classification loops, or None when numba is missing."""
    global _numba_compiled, _numba_failed
    if _numba_compiled is None and not _numba_failed:
        try:
            import numba
        except ImportError:
            _numba_failed = True
            return None
        _numba_compiled = numba.njit(cache=False)(_classify_loops)
    return _numba_compiled


# -- per-polygon edge arrays (cached) -----------------------------------------


class EdgeArrays:
    """A polygon's boundary flattened into numpy vectors (plus bboxes).

    ``ax/ay -> bx/by`` are the directed boundary edges, shell ring
    first, then each hole; ``ring_offsets`` gives the edge-index range
    of ring ``i`` as ``[ring_offsets[i], ring_offsets[i+1])``.
    """

    __slots__ = (
        "ax", "ay", "bx", "by",
        "ring_offsets",
        "eminx", "eminy", "emaxx", "emaxy",
        "bminx", "bminy", "bmaxx", "bmaxy",
        "tolerance",
    )

    def __init__(self, polygon: Polygon) -> None:
        rings = [polygon.shell, *polygon.holes]
        ax: List[float] = []
        ay: List[float] = []
        bx: List[float] = []
        by: List[float] = []
        offsets = [0]
        for ring in rings:
            n = len(ring)
            for i in range(n):
                p, q = ring[i], ring[(i + 1) % n]
                ax.append(float(p.x))
                ay.append(float(p.y))
                bx.append(float(q.x))
                by.append(float(q.y))
            offsets.append(len(ax))
        self.ax = np.asarray(ax, dtype=np.float64)
        self.ay = np.asarray(ay, dtype=np.float64)
        self.bx = np.asarray(bx, dtype=np.float64)
        self.by = np.asarray(by, dtype=np.float64)
        self.ring_offsets = np.asarray(offsets, dtype=np.int64)
        self.eminx = np.minimum(self.ax, self.bx)
        self.emaxx = np.maximum(self.ax, self.bx)
        self.eminy = np.minimum(self.ay, self.by)
        self.emaxy = np.maximum(self.ay, self.by)
        box = polygon.bbox
        self.bminx = float(box.min_x)
        self.bminy = float(box.min_y)
        self.bmaxx = float(box.max_x)
        self.bmaxy = float(box.max_y)
        # The same scale-relative tolerance Polygon.clip_segment uses for
        # its near-boundary rescue; the kernel demands 2x this clearance
        # before trusting parity alone.
        self.tolerance = 1e-9 * max(box.width, box.height, 1.0)


def polygon_edge_arrays(polygon: Polygon) -> EdgeArrays:
    """The polygon's :class:`EdgeArrays`, built once and cached on it.

    Polygons are frozen (immutable), so the cache can never go stale;
    :meth:`Polygon.__getstate__` strips it, so pickled geometries stay
    lean.
    """
    cached = getattr(polygon, "_edge_arrays", None)
    if cached is None:
        cached = EdgeArrays(polygon)
        object.__setattr__(polygon, "_edge_arrays", cached)
    return cached


# -- classification -----------------------------------------------------------


def _ring_parity(
    px: np.ndarray,
    py: np.ndarray,
    ax: np.ndarray,
    ay: np.ndarray,
    bx: np.ndarray,
    by: np.ndarray,
) -> np.ndarray:
    """Vectorized even-odd ray cast of points against one ring.

    Evaluates exactly the expressions of
    :func:`repro.geometry.polygon._point_in_ring` — crossing condition
    ``(ay > y) != (by > y)`` and ``x < ax + (y - ay) * (bx - ax) /
    (by - ay)`` — so for any point the result is bit-identical to the
    scalar loop.
    """
    cond = (ay[None, :] > py[:, None]) != (by[None, :] > py[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = (
            ax[None, :]
            + (py[:, None] - ay[None, :])
            * (bx - ax)[None, :]
            / (by - ay)[None, :]
        )
        hits = cond & (px[:, None] < x_cross)
    return (hits.sum(axis=1) & 1).astype(bool)


def _points_inside(px: np.ndarray, py: np.ndarray, edges: EdgeArrays) -> np.ndarray:
    """Parity containment (shell AND NOT any hole) for far-field points."""
    offs = edges.ring_offsets
    o0, o1 = int(offs[0]), int(offs[1])
    inside = _ring_parity(
        px, py,
        edges.ax[o0:o1], edges.ay[o0:o1],
        edges.bx[o0:o1], edges.by[o0:o1],
    )
    for r in range(1, len(offs) - 1):
        h0, h1 = int(offs[r]), int(offs[r + 1])
        inside &= ~_ring_parity(
            px, py,
            edges.ax[h0:h1], edges.ay[h0:h1],
            edges.bx[h0:h1], edges.by[h0:h1],
        )
    return inside


def _min_dist2_to_edges(
    px: np.ndarray, py: np.ndarray, edges: EdgeArrays
) -> np.ndarray:
    """Squared distance from each point to the nearest boundary edge."""
    dx = (edges.bx - edges.ax)[None, :]
    dy = (edges.by - edges.ay)[None, :]
    rx = px[:, None] - edges.ax[None, :]
    ry = py[:, None] - edges.ay[None, :]
    len2 = dx * dx + dy * dy
    safe = np.where(len2 > 0.0, len2, 1.0)
    tproj = np.clip((rx * dx + ry * dy) / safe, 0.0, 1.0)
    tproj = np.where(len2 > 0.0, tproj, 0.0)
    cx = rx - tproj * dx
    cy = ry - tproj * dy
    d2 = cx * cx + cy * cy
    return d2.min(axis=1)


def _classify_chunk_numpy(
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    edges: EdgeArrays,
) -> np.ndarray:
    n = x0.shape[0]
    status = np.full(n, 2, dtype=np.uint8)
    sminx = np.minimum(x0, x1)
    smaxx = np.maximum(x0, x1)
    sminy = np.minimum(y0, y1)
    smaxy = np.maximum(y0, y1)
    disjoint = (
        (sminx > edges.bmaxx)
        | (smaxx < edges.bminx)
        | (sminy > edges.bmaxy)
        | (smaxy < edges.bminy)
    )
    status[disjoint] = 0
    cand = ~disjoint & ~((x0 == x1) & (y0 == y1))
    idx = np.nonzero(cand)[0]
    if idx.size == 0:
        return status

    cx0, cy0 = x0[idx], y0[idx]
    cx1, cy1 = x1[idx], y1[idx]
    # Pairwise (segment x edge) bbox overlap.
    overlap = ~(
        (sminx[idx, None] > edges.emaxx[None, :])
        | (smaxx[idx, None] < edges.eminx[None, :])
        | (sminy[idx, None] > edges.emaxy[None, :])
        | (smaxy[idx, None] < edges.eminy[None, :])
    )
    # Separation by the segment's supporting line: both edge endpoints
    # strictly (beyond the uncertainty band) on one side.
    dsx = (cx1 - cx0)[:, None]
    dsy = (cy1 - cy0)[:, None]
    rax = edges.ax[None, :] - cx0[:, None]
    ray = edges.ay[None, :] - cy0[:, None]
    rbx = edges.bx[None, :] - cx0[:, None]
    rby = edges.by[None, :] - cy0[:, None]
    d1 = dsx * ray - dsy * rax
    d2 = dsx * rby - dsy * rbx
    b1 = _SEP_EPS * (np.abs(dsx) * np.abs(ray) + np.abs(dsy) * np.abs(rax))
    b2 = _SEP_EPS * (np.abs(dsx) * np.abs(rby) + np.abs(dsy) * np.abs(rbx))
    sep_seg = ((d1 > b1) & (d2 > b2)) | ((d1 < -b1) & (d2 < -b2))
    # Separation by the edge's supporting line: both segment endpoints
    # strictly on one side.
    dex = (edges.bx - edges.ax)[None, :]
    dey = (edges.by - edges.ay)[None, :]
    r1x = cx1[:, None] - edges.ax[None, :]
    r1y = cy1[:, None] - edges.ay[None, :]
    d3 = dex * (-ray) - dey * (-rax)
    d4 = dex * r1y - dey * r1x
    b3 = _SEP_EPS * (np.abs(dex) * np.abs(ray) + np.abs(dey) * np.abs(rax))
    b4 = _SEP_EPS * (np.abs(dex) * np.abs(r1y) + np.abs(dey) * np.abs(r1x))
    sep_edge = ((d3 > b3) & (d4 > b4)) | ((d3 < -b3) & (d4 < -b4))
    contact = overlap & ~sep_seg & ~sep_edge
    clean = ~contact.any(axis=1)
    if not clean.any():
        return status

    kept = idx[clean]
    kx0, ky0 = x0[kept], y0[kept]
    kx1, ky1 = x1[kept], y1[kept]
    # Midpoint exactly as the scalar path: Segment.point_at(0.5) is
    # start + 0.5 * (end - start), NOT (start + end) / 2.
    mx = kx0 + 0.5 * (kx1 - kx0)
    my = ky0 + 0.5 * (ky1 - ky0)
    pts_x = np.concatenate([kx0, mx, kx1])
    pts_y = np.concatenate([ky0, my, ky1])
    d2min = _min_dist2_to_edges(pts_x, pts_y, edges).reshape(3, kept.size)
    clear2 = (2.0 * edges.tolerance) ** 2
    far = (d2min >= clear2).all(axis=0)
    if not far.any():
        return status
    final = kept[far]
    inside = _points_inside(mx[far], my[far], edges)
    status[final] = np.where(inside, 1, 0).astype(np.uint8)
    return status


def _classify_loops(
    x0, y0, x1, y1,
    ax, ay, bx, by, ring_offsets,
    bminx, bminy, bmaxx, bmaxy, tolerance,
):
    """Loop form of :func:`_classify_chunk_numpy` — same math, scalar
    control flow, so ``numba.njit`` compiles it directly.  Runs (slowly)
    uncompiled too, which is how the equivalence tests pin it against
    the numpy implementation without numba installed.
    """
    n = x0.shape[0]
    n_edges = ax.shape[0]
    n_rings = ring_offsets.shape[0] - 1
    status = np.full(n, 2, dtype=np.uint8)
    clear2 = (2.0 * tolerance) * (2.0 * tolerance)
    for i in range(n):
        sx0, sy0, sx1, sy1 = x0[i], y0[i], x1[i], y1[i]
        sminx = sx0 if sx0 < sx1 else sx1
        smaxx = sx1 if sx0 < sx1 else sx0
        sminy = sy0 if sy0 < sy1 else sy1
        smaxy = sy1 if sy0 < sy1 else sy0
        if sminx > bmaxx or smaxx < bminx or sminy > bmaxy or smaxy < bminy:
            status[i] = 0
            continue
        if sx0 == sx1 and sy0 == sy1:
            continue  # degenerate: scalar fallback
        dsx = sx1 - sx0
        dsy = sy1 - sy0
        contact = False
        for e in range(n_edges):
            eax, eay, ebx, eby = ax[e], ay[e], bx[e], by[e]
            eminx = eax if eax < ebx else ebx
            emaxx = ebx if eax < ebx else eax
            eminy = eay if eay < eby else eby
            emaxy = eby if eay < eby else eay
            if (
                sminx > emaxx or smaxx < eminx
                or sminy > emaxy or smaxy < eminy
            ):
                continue
            rax_ = eax - sx0
            ray_ = eay - sy0
            rbx_ = ebx - sx0
            rby_ = eby - sy0
            d1 = dsx * ray_ - dsy * rax_
            d2 = dsx * rby_ - dsy * rbx_
            b1 = _SEP_EPS * (abs(dsx) * abs(ray_) + abs(dsy) * abs(rax_))
            b2 = _SEP_EPS * (abs(dsx) * abs(rby_) + abs(dsy) * abs(rbx_))
            if (d1 > b1 and d2 > b2) or (d1 < -b1 and d2 < -b2):
                continue
            dex = ebx - eax
            dey = eby - eay
            r1x = sx1 - eax
            r1y = sy1 - eay
            d3 = dex * (-ray_) - dey * (-rax_)
            d4 = dex * r1y - dey * r1x
            b3 = _SEP_EPS * (abs(dex) * abs(ray_) + abs(dey) * abs(rax_))
            b4 = _SEP_EPS * (abs(dex) * abs(r1y) + abs(dey) * abs(r1x))
            if (d3 > b3 and d4 > b4) or (d3 < -b3 and d4 < -b4):
                continue
            contact = True
            break
        if contact:
            continue
        mx = sx0 + 0.5 * (sx1 - sx0)
        my = sy0 + 0.5 * (sy1 - sy0)
        far = True
        for e in range(n_edges):
            eax, eay = ax[e], ay[e]
            dex = bx[e] - eax
            dey = by[e] - eay
            len2 = dex * dex + dey * dey
            for (px, py) in ((sx0, sy0), (mx, my), (sx1, sy1)):
                rx = px - eax
                ry = py - eay
                if len2 > 0.0:
                    tproj = (rx * dex + ry * dey) / len2
                    if tproj < 0.0:
                        tproj = 0.0
                    elif tproj > 1.0:
                        tproj = 1.0
                else:
                    tproj = 0.0
                cx = rx - tproj * dex
                cy = ry - tproj * dey
                if cx * cx + cy * cy < clear2:
                    far = False
                    break
            if not far:
                break
        if not far:
            continue
        inside = False
        s0, s1 = ring_offsets[0], ring_offsets[1]
        for e in range(s0, s1):
            if (ay[e] > my) != (by[e] > my):
                x_cross = ax[e] + (my - ay[e]) * (bx[e] - ax[e]) / (by[e] - ay[e])
                if mx < x_cross:
                    inside = not inside
        if inside:
            for r in range(1, n_rings):
                h0, h1 = ring_offsets[r], ring_offsets[r + 1]
                in_hole = False
                for e in range(h0, h1):
                    if (ay[e] > my) != (by[e] > my):
                        x_cross = (
                            ax[e]
                            + (my - ay[e]) * (bx[e] - ax[e]) / (by[e] - ay[e])
                        )
                        if mx < x_cross:
                            in_hole = not in_hole
                if in_hole:
                    inside = False
                    break
        status[i] = 1 if inside else 0
    return status


def classify_segments(
    polygon: Polygon,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
) -> np.ndarray:
    """Classify segments vs ``polygon`` into status codes 0/1/2.

    0 = provably outside, 1 = provably fully inside (far from the
    boundary), 2 = undecided, answer with the scalar path.
    """
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    y0 = np.ascontiguousarray(y0, dtype=np.float64)
    x1 = np.ascontiguousarray(x1, dtype=np.float64)
    y1 = np.ascontiguousarray(y1, dtype=np.float64)
    n = x0.shape[0]
    backend = kernel_backend()
    if backend == "scalar" or n == 0:
        return np.full(n, 2, dtype=np.uint8)
    edges = polygon_edge_arrays(polygon)
    jitted = _numba_classify() if backend == "numba" else None
    out = np.empty(n, dtype=np.uint8)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        if jitted is not None:
            out[lo:hi] = jitted(
                x0[lo:hi], y0[lo:hi], x1[lo:hi], y1[lo:hi],
                edges.ax, edges.ay, edges.bx, edges.by,
                edges.ring_offsets,
                edges.bminx, edges.bminy, edges.bmaxx, edges.bmaxy,
                edges.tolerance,
            )
        else:
            out[lo:hi] = _classify_chunk_numpy(
                x0[lo:hi], y0[lo:hi], x1[lo:hi], y1[lo:hi], edges
            )
    return out


# -- batch answers ------------------------------------------------------------


def _record_status(obs, status: np.ndarray) -> None:
    if obs is not None and status.size:
        fallback = int(np.count_nonzero(status == 2))
        obs.incr("clip_kernel_segments", status.size)
        if fallback:
            obs.incr("clip_kernel_fallback", fallback)


def clip_segments_batch(
    polygon: Polygon,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    obs=None,
) -> List[List[Tuple[float, float]]]:
    """Per-segment clip intervals, bit-identical to
    :meth:`Polygon.clip_segment` on every segment."""
    status = classify_segments(polygon, x0, y0, x1, y1)
    _record_status(obs, status)
    out: List[List[Tuple[float, float]]] = []
    for i, s in enumerate(status):
        if s == 1:
            out.append([(0.0, 1.0)])
        elif s == 0:
            out.append([])
        else:
            out.append(
                polygon.clip_segment(
                    Segment(
                        Point(float(x0[i]), float(y0[i])),
                        Point(float(x1[i]), float(y1[i])),
                    )
                )
            )
    return out


def segments_dwell(
    polygon: Polygon,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    dt: np.ndarray,
    obs=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-segment dwell time inside ``polygon`` plus the intersection mask.

    ``dwell[i]`` bit-equals ``sum((s1 - s0) * dt[i] for (s0, s1) in
    polygon.clip_segment(seg_i))`` and ``hits[i]`` equals
    ``polygon.intersects_segment(seg_i)``.
    """
    status = classify_segments(polygon, x0, y0, x1, y1)
    _record_status(obs, status)
    n = status.shape[0]
    dwell = np.zeros(n, dtype=np.float64)
    hits = np.zeros(n, dtype=bool)
    fast_in = status == 1
    if fast_in.any():
        # Scalar arithmetic for a fully-inside segment is
        # (1.0 - 0.0) * dt, which is exactly dt.
        dwell[fast_in] = np.asarray(dt, dtype=np.float64)[fast_in]
        hits[fast_in] = True
    for i in np.nonzero(status == 2)[0]:
        seg = Segment(
            Point(float(x0[i]), float(y0[i])),
            Point(float(x1[i]), float(y1[i])),
        )
        if polygon.intersects_segment(seg):
            hits[i] = True
            dt_i = float(dt[i])
            total = 0.0
            for s0, s1 in polygon.clip_segment(seg):
                total += (s1 - s0) * dt_i
            dwell[i] = total
    return dwell, hits


def segments_intersect(
    polygon: Polygon,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    obs=None,
) -> np.ndarray:
    """Per-segment :meth:`Polygon.intersects_segment`, batched."""
    status = classify_segments(polygon, x0, y0, x1, y1)
    _record_status(obs, status)
    hits = status == 1
    for i in np.nonzero(status == 2)[0]:
        hits[i] = polygon.intersects_segment(
            Segment(
                Point(float(x0[i]), float(y0[i])),
                Point(float(x1[i]), float(y1[i])),
            )
        )
    return hits


def segments_fully_inside(
    polygon: Polygon,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    obs=None,
) -> np.ndarray:
    """Per-segment "clip == [(0.0, 1.0)]" — full containment, batched."""
    status = classify_segments(polygon, x0, y0, x1, y1)
    _record_status(obs, status)
    inside = status == 1
    for i in np.nonzero(status == 2)[0]:
        clips = polygon.clip_segment(
            Segment(
                Point(float(x0[i]), float(y0[i])),
                Point(float(x1[i]), float(y1[i])),
            )
        )
        inside[i] = clips == [(0.0, 1.0)]
    return inside


# -- disc (POI) kernels -------------------------------------------------------
#
# The stop/move machinery (:mod:`repro.poi`) clips trajectory segments
# against closed discs.  Unlike the polygon kernel there is no scalar
# fallback class: the quadratic |p0 + w*d - c|^2 = r^2 solves every
# segment outright, so the batched fold below IS the kernel path and the
# scalar fold exists only as its bit-identical reference (pinned by
# tests/poi/test_dwell_fold_kernel.py).  Both evaluate the exact same
# IEEE-754 expression sequence per element, hence bitwise equality.


def disc_clip_scalar(
    cx: float,
    cy: float,
    r: float,
    x0: float,
    y0: float,
    x1: float,
    y1: float,
) -> Tuple[float, float]:
    """Parameter interval ``[lo, hi]`` of one segment inside the closed disc.

    Returns ``(0.0, 0.0)`` (empty) when the segment misses the disc or
    only grazes it tangentially (measure-zero contact).  A stationary
    segment (coincident endpoints) is wholly in (``(0.0, 1.0)``) or
    wholly out by endpoint membership.  An end point that passes the
    closed-disc test pins its side of the interval to exactly 0.0 or
    1.0: the root of the quadratic can land an ulp short of it, and the
    interval merge snaps to piece times only on the exact values.
    """
    dx = x1 - x0
    dy = y1 - y0
    fx = x0 - cx
    fy = y0 - cy
    gx = x1 - cx
    gy = y1 - cy
    a = dx * dx + dy * dy
    c = fx * fx + fy * fy - r * r
    if a == 0.0:
        return (0.0, 1.0) if c <= 0.0 else (0.0, 0.0)
    b = fx * dx + fy * dy
    disc = b * b - a * c
    if disc <= 0.0:
        return (0.0, 0.0)
    c1 = gx * gx + gy * gy - r * r
    sq = math.sqrt(disc)
    w1 = (-b - sq) / a
    w2 = (-b + sq) / a
    lo = 0.0 if (c <= 0.0 or w1 < 0.0) else (1.0 if w1 > 1.0 else w1)
    hi = 1.0 if (c1 <= 0.0 or w2 > 1.0) else (0.0 if w2 < 0.0 else w2)
    return (lo, hi)


def disc_clip_batch(
    cx: float,
    cy: float,
    r: float,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    obs=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched :func:`disc_clip_scalar` over segment arrays.

    Bitwise-identical to the scalar fold: every element goes through the
    same expression sequence (products, discriminant, sqrt, division,
    branch-style clamp), just vectorized.  The ``scalar`` kernel backend
    routes through the reference loop outright.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    y1 = np.asarray(y1, dtype=np.float64)
    n = x0.shape[0]
    if obs is not None:
        obs.incr("disc_kernel_segments", n)
    if kernel_backend() == "scalar":
        lo = np.zeros(n, dtype=np.float64)
        hi = np.zeros(n, dtype=np.float64)
        cxf, cyf, rf = float(cx), float(cy), float(r)
        for i in range(n):
            lo[i], hi[i] = disc_clip_scalar(
                cxf, cyf, rf,
                float(x0[i]), float(y0[i]), float(x1[i]), float(y1[i]),
            )
        return lo, hi
    dx = x1 - x0
    dy = y1 - y0
    fx = x0 - cx
    fy = y0 - cy
    a = dx * dx + dy * dy
    c = fx * fx + fy * fy - r * r
    b = fx * dx + fy * dy
    lo = np.zeros(n, dtype=np.float64)
    hi = np.zeros(n, dtype=np.float64)
    degenerate = a == 0.0
    if degenerate.any():
        hi[degenerate & (c <= 0.0)] = 1.0
    with np.errstate(invalid="ignore"):
        # Stationary pieces with an infinite radius produce 0 * inf
        # here; the `degenerate` mask already answered them above.
        disc = b * b - a * c
    solve = np.flatnonzero((~degenerate) & (disc > 0.0))
    if solve.size:
        sq = np.sqrt(disc[solve])
        aa = a[solve]
        bb = b[solve]
        w1 = (-bb - sq) / aa
        w2 = (-bb + sq) / aa
        gx = x1[solve] - cx
        gy = y1[solve] - cy
        c1 = gx * gx + gy * gy - r * r
        lo[solve] = np.where(
            (c[solve] <= 0.0) | (w1 < 0.0), 0.0, np.where(w1 > 1.0, 1.0, w1)
        )
        hi[solve] = np.where(
            (c1 <= 0.0) | (w2 > 1.0), 1.0, np.where(w2 < 0.0, 0.0, w2)
        )
    return lo, hi


def disc_dwell(
    cx: float,
    cy: float,
    r: float,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    dt: np.ndarray,
    obs=None,
) -> np.ndarray:
    """Per-segment dwell time inside the closed disc, batched.

    ``dwell[i]`` bit-equals ``(hi - lo) * dt[i]`` from
    :func:`disc_clip_scalar` on segment ``i``.
    """
    lo, hi = disc_clip_batch(cx, cy, r, x0, y0, x1, y1, obs=obs)
    return (hi - lo) * np.asarray(dt, dtype=np.float64)


def disc_dwell_scalar(
    cx: float,
    cy: float,
    r: float,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    dt: np.ndarray,
) -> np.ndarray:
    """Reference scalar dwell fold (same expressions, Python floats)."""
    n = len(x0)
    out = np.zeros(n, dtype=np.float64)
    cxf, cyf, rf = float(cx), float(cy), float(r)
    for i in range(n):
        lo, hi = disc_clip_scalar(
            cxf, cyf, rf,
            float(x0[i]), float(y0[i]), float(x1[i]), float(y1[i]),
        )
        out[i] = (hi - lo) * float(dt[i])
    return out


__all__ = [
    "EdgeArrays",
    "classify_segments",
    "clip_segments_batch",
    "disc_clip_batch",
    "disc_clip_scalar",
    "disc_dwell",
    "disc_dwell_scalar",
    "kernel_backend",
    "polygon_edge_arrays",
    "segments_dwell",
    "segments_fully_inside",
    "segments_intersect",
    "set_kernel_backend",
]
