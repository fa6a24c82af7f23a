"""Vectorized segment-vs-polygon clip kernels.

The hot loops of the dwell/THROUGH machinery — the pre-agg builder, the
moving-object operations and the overlay path — all reduce to "clip many
trajectory segments against one polygon".  The scalar path
(:meth:`Polygon.clip_segment` / :meth:`Polygon.intersects_segment`)
costs hundreds of Python bytecodes per segment.  This module batches it.

**Exact by construction.**  The kernel never *approximates* the scalar
answer; it sorts segments into four classes with conservative,
vectorized tests and only answers the ones it can prove itself:

* status ``0`` — provably outside: the segment's bbox misses the
  polygon's, or the segment provably touches no boundary edge and its
  midpoint parity says *outside*.  Scalar result: no clip intervals,
  no intersection.
* status ``1`` — provably inside, far from the boundary: no possible
  edge contact and start/mid/end all at least ``2 x tolerance`` from
  every edge, midpoint parity *inside*.  Scalar result: one interval
  ``(0.0, 1.0)``.  A zero-length segment (a parked object) is its one
  point under the same far-field rule.
* status ``2``, *crossing* — the segment crosses the boundary
  transversally and nothing about it is close to degenerate
  (:func:`_solve_crossings`): the cut parameters are the float branch
  of :func:`~repro.geometry.predicates.segment_intersection_parameters`
  evaluated for every (segment, edge) pair in numpy, and the pieces
  between them are classified by midpoint parity; they must alternate,
  so each inside piece is one clip interval.
* status ``2``, *scalar* — everything the tests above cannot prove
  (collinear overlap, vertex or endpoint touch, near-parallel pairs,
  pieces hugging the boundary, more than ``_MAX_CUTS`` cuts): the
  kernel calls the scalar methods, so these are bit-identical
  trivially.

For statuses 0/1 the equivalence argument: a conservatively *clean*
segment has no boundary contact, so the scalar cut set is ``[0, 1]`` and
its answer is ``contains_point(midpoint)``; for points ``>= 2 x
tolerance`` from every edge the boundary/near-boundary branches cannot
fire and the vectorized even-odd parity evaluates the *same float
expressions* as :func:`~repro.geometry.polygon._point_in_ring`, hence
bit-equal.  A clean segment lies in a single component, so inside/
outside extends from the midpoint to the whole segment, which also
settles ``intersects_segment``.  The crossing class extends the argument
piece by piece; :func:`_solve_crossings` spells out which scalar
branches can and cannot fire for a row it accepts.

Backends (:func:`set_kernel_backend`):

========== =====================================================
``numpy``  the default: vectorized classification in numpy
``scalar`` classify everything as status 2 and solve nothing in
           batch — the old per-segment path, kept as the
           differential-testing baseline
========== =====================================================
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.predicates import _ORIENT_EPS
from repro.geometry.segment import Segment

#: Relative half-width of the sign-uncertainty band around cross
#: products: a computed cross product within ``_SEP_EPS x magnitude`` of
#: zero is treated as "could be either sign" and routed to the scalar
#: fallback.  Double arithmetic errs by a few ulps (~1e-16 relative), so
#: 1e-9 is a ~1e7-fold safety margin.
_SEP_EPS = 1e-9

#: Segment batch size for the pairwise (segment x edge) work arrays.
_CHUNK = 4096

#: ``boundary_eps`` of :func:`predicates.segment_intersection_parameters`:
#: a float crossing parameter within this band of 0 or 1 sends the scalar
#: code to its exact ``Fraction`` branch, and the row to the scalar path.
_PARAM_EPS = 1e-9

#: Closest two cuts of one segment (0 and 1 included) may lie for the
#: crossing solver to take it.  ``Polygon.clip_segment`` drops and merges
#: cuts with ``math.isclose(..., abs_tol=1e-12)``, whose default
#: ``rel_tol`` makes the band up to 1e-9 wide; 1e-7 clears it 100-fold.
_CUT_GAP = 1e-7

#: Most boundary cuts per segment the crossing solver handles.
_MAX_CUTS = 8

_BACKENDS = ("numpy", "scalar")
_backend = "numpy"


def set_kernel_backend(name: str) -> str:
    """Select the classification backend; returns it."""
    global _backend
    name = name.lower()
    if name not in _BACKENDS:
        raise GeometryError(
            f"unknown clip-kernel backend {name!r}; "
            f"choose from {', '.join(_BACKENDS)}"
        )
    _backend = name
    return name


def kernel_backend() -> str:
    """The classification backend in effect."""
    return _backend


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
    idx = np.nonzero(~disjoint)[0]
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
    # A zero-length segment is one point: the far-field rule below is
    # all its scalar answer (contains_point) depends on.
    clean = ~contact.any(axis=1) | ((cx0 == cx1) & (cy0 == cy1))
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


def _float_columns(*columns) -> List[np.ndarray]:
    return [np.ascontiguousarray(c, dtype=np.float64) for c in columns]


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
    x0, y0, x1, y1 = _float_columns(x0, y0, x1, y1)
    n = x0.shape[0]
    if kernel_backend() == "scalar" or n == 0:
        return np.full(n, 2, dtype=np.uint8)
    edges = polygon_edge_arrays(polygon)
    out = np.empty(n, dtype=np.uint8)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        out[lo:hi] = _classify_chunk_numpy(
            x0[lo:hi], y0[lo:hi], x1[lo:hi], y1[lo:hi], edges
        )
    return out


# -- boundary crossings -------------------------------------------------------


def _far_and_inside(
    px: np.ndarray, py: np.ndarray, edges: EdgeArrays
) -> Tuple[np.ndarray, np.ndarray]:
    """Per point: is it in the far field (``>= 2 x tolerance`` from every
    edge), and what its parity containment is (exact there)."""
    clear2 = (2.0 * edges.tolerance) ** 2
    far = np.empty(px.shape[0], dtype=bool)
    inside = np.empty(px.shape[0], dtype=bool)
    for lo in range(0, px.shape[0], _CHUNK):
        hi = lo + _CHUNK
        far[lo:hi] = _min_dist2_to_edges(px[lo:hi], py[lo:hi], edges) >= clear2
        inside[lo:hi] = _points_inside(px[lo:hi], py[lo:hi], edges)
    return far, inside


def _solve_crossings(
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    edges: EdgeArrays,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clip the plain transversal crossings among one chunk of rows.

    Returns ``(lo, hi, count)``: row ``i`` was solved iff ``count[i] >
    0``, and then ``zip(lo[i, :count[i]], hi[i, :count[i]])`` is
    :meth:`Polygon.clip_segment` of it, bit for bit.  A solved row also
    satisfies :meth:`Polygon.intersects_segment`.

    A row is solved only when all of this holds, and each condition
    closes one branch of the scalar code:

    * *Every (segment, edge) pair is decided in floats.*  The arrays
      below are the float branch of
      :func:`predicates.segment_intersection_parameters` — same
      expressions in the same order, hence the same bits — and a pair
      counts only behind a trusted determinant (the scalar test, so no
      ``Fraction`` branch) with ``(s, u)`` ``clearly_inside`` (a cut at
      ``s``) or ``clearly_outside`` (no cut) by the scalar comparisons.
      For a miss the scalar code then asks :meth:`Segment.overlap`,
      which needs the pair exactly collinear; exact collinearity puts
      the float determinant within a few ulps of zero, i.e. untrusted,
      so it answers ``None``.
    * *Between 1 and* ``_MAX_CUTS`` *cuts, all gaps wider than*
      ``_CUT_GAP``.  Cuts lie in ``(1e-9, 1 - 1e-9)``, so the ``0 < p <
      1`` filter keeps them all; no two are ``isclose``, so the dedupe
      keeps them all, no piece is skipped as empty, and two intervals
      could merge only by sharing a cut.
    * *Every piece midpoint* ``point_at((s0 + s1) / 2)`` *lies in the
      far field.*  The status 0/1 argument applies to it unchanged:
      ``contains_point`` is the vectorized parity and ``_near_boundary``
      is false.
    * *Inside and outside pieces alternate.*  Every real crossing flips
      the parity, so they do unless a cut is spurious or the rings
      overlap each other; those rows go scalar, and here no two
      intervals share a cut: each inside piece is one interval, nothing
      merges.  A segment with a far-field point on either side of the
      boundary really meets the region, which is what
      ``intersects_segment`` decides with exact predicates.  Segments
      that stay on one side (near misses) have no cut and are left to
      the scalar path.
    """
    n = x0.shape[0]
    lo = np.zeros((n, _MAX_CUTS // 2 + 1), dtype=np.float64)
    hi = np.zeros_like(lo)
    count = np.zeros(n, dtype=np.intp)

    rx = (x1 - x0)[:, None]
    ry = (y1 - y0)[:, None]
    qx = (edges.bx - edges.ax)[None, :]
    qy = (edges.by - edges.ay)[None, :]
    wx = edges.ax[None, :] - x0[:, None]
    wy = edges.ay[None, :] - y0[:, None]
    with np.errstate(all="ignore"):
        rx_qy, ry_qx = rx * qy, ry * qx
        denom = rx_qy - ry_qx
        magnitude = np.abs(rx_qy) + np.abs(ry_qx)
        s = (wx * qy - wy * qx) / denom
        u = (wx * ry - wy * rx) / denom
        cut = (
            (_PARAM_EPS < s) & (s < 1 - _PARAM_EPS)
            & (_PARAM_EPS < u) & (u < 1 - _PARAM_EPS)
        )
        miss = (
            (s < -_PARAM_EPS) | (s > 1 + _PARAM_EPS)
            | (u < -_PARAM_EPS) | (u > 1 + _PARAM_EPS)
        )
        decided = (np.abs(denom) > _ORIENT_EPS * magnitude) & (cut | miss)
    n_cuts = cut.sum(axis=1)
    rows = np.flatnonzero(
        decided.all(axis=1) & (n_cuts >= 1) & (n_cuts <= _MAX_CUTS)
    )
    if rows.size == 0:
        return lo, hi, count

    # bounds[i] = [0.0, cuts ascending ..., 1.0, 1.0 ...]; piece j of a
    # row is (bounds[j], bounds[j + 1]) for j <= its number of cuts.
    n_cuts = n_cuts[rows]
    width = int(n_cuts.max())
    cuts = np.where(cut[rows], s[rows], np.inf)
    cuts.sort(axis=1)
    bounds = np.ones((rows.size, width + 2), dtype=np.float64)
    bounds[:, 0] = 0.0
    np.minimum(cuts[:, :width], 1.0, out=bounds[:, 1:-1])
    is_piece = np.arange(width + 1)[None, :] <= n_cuts[:, None]
    spaced = ((np.diff(bounds, axis=1) > _CUT_GAP) | ~is_piece).all(axis=1)
    rows, bounds, is_piece = rows[spaced], bounds[spaced], is_piece[spaced]

    r, j = np.nonzero(is_piece)
    at = rows[r]
    mid = (bounds[r, j] + bounds[r, j + 1]) / 2
    far, piece_inside = _far_and_inside(
        x0[at] + mid * (x1[at] - x0[at]),
        y0[at] + mid * (y1[at] - y0[at]),
        edges,
    )
    inside = np.zeros(is_piece.shape, dtype=bool)
    inside[r, j] = piece_inside
    alternating = (
        (inside[:, 1:] != inside[:, :-1]) | ~is_piece[:, 1:]
    ).all(axis=1)
    solved = alternating & (np.bincount(r[~far], minlength=rows.size) == 0)
    rows, bounds, inside = rows[solved], bounds[solved], inside[solved]

    # The k-th inside piece of a row is its k-th clip interval.
    r, j = np.nonzero(inside)
    k = np.cumsum(inside, axis=1)[r, j] - 1
    lo[rows[r], k] = bounds[r, j]
    hi[rows[r], k] = bounds[r, j + 1]
    count[rows] = inside.sum(axis=1)
    return lo, hi, count


# -- batch answers ------------------------------------------------------------


class _Resolved(NamedTuple):
    """What :func:`_resolve` knows about one batch.

    ``status`` covers every segment; the other fields are aligned with
    ``rows``, the indices of the status-2 segments: whether each meets
    the polygon, and its ``count`` clip intervals ``(lo[k, i], hi[k,
    i])``.
    """

    status: np.ndarray
    rows: np.ndarray
    hits: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    count: np.ndarray


def _resolve(
    polygon: Polygon,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    obs,
    want_hits: bool = True,
    want_clips: bool = True,
) -> _Resolved:
    """Classify a batch, then answer its status-2 rows: boundary
    crossings in batch, the rest through the scalar methods.

    The scalar loop computes :meth:`Polygon.intersects_segment` when
    ``want_hits`` and :meth:`Polygon.clip_segment` when ``want_clips``;
    with both it clips only the segments that hit, as the dwell fold
    always has.  Fields not asked for are not meaningful.
    """
    x0, y0, x1, y1 = _float_columns(x0, y0, x1, y1)
    status = classify_segments(polygon, x0, y0, x1, y1)
    rows = np.flatnonzero(status == 2)
    lo = np.zeros((rows.size, _MAX_CUTS // 2 + 1), dtype=np.float64)
    hi = np.zeros_like(lo)
    count = np.zeros(rows.size, dtype=np.intp)
    if rows.size and kernel_backend() != "scalar":
        edges = polygon_edge_arrays(polygon)
        for a in range(0, rows.size, _CHUNK):
            part = rows[a:a + _CHUNK]
            lo[a:a + _CHUNK], hi[a:a + _CHUNK], count[a:a + _CHUNK] = (
                _solve_crossings(x0[part], y0[part], x1[part], y1[part], edges)
            )
    hits = count > 0
    scalar = np.flatnonzero(~hits)
    for k, i in zip(scalar.tolist(), rows[scalar].tolist()):
        seg = Segment(
            Point(float(x0[i]), float(y0[i])),
            Point(float(x1[i]), float(y1[i])),
        )
        hits[k] = not want_hits or polygon.intersects_segment(seg)
        if want_clips and hits[k]:
            clips = polygon.clip_segment(seg)
            if len(clips) > lo.shape[1]:
                grow = ((0, 0), (0, len(clips) - lo.shape[1]))
                lo, hi = np.pad(lo, grow), np.pad(hi, grow)
            count[k] = len(clips)
            for c, (s0, s1) in enumerate(clips):
                lo[k, c], hi[k, c] = s0, s1
    if obs is not None and status.size:
        obs.incr("clip_kernel_segments", status.size)
        if scalar.size < rows.size:
            obs.incr("clip_kernel_crossings", rows.size - scalar.size)
        if scalar.size:
            obs.incr("clip_kernel_fallback", scalar.size)
    return _Resolved(status, rows, hits, lo, hi, count)


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
    res = _resolve(polygon, x0, y0, x1, y1, obs, want_hits=False)
    out: List[List[Tuple[float, float]]] = [
        [(0.0, 1.0)] if s == 1 else [] for s in res.status.tolist()
    ]
    for i, n, los, his in zip(
        res.rows.tolist(), res.count.tolist(), res.lo.tolist(), res.hi.tolist()
    ):
        out[i] = list(zip(los[:n], his[:n]))
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
    res = _resolve(polygon, x0, y0, x1, y1, obs)
    dt = np.asarray(dt, dtype=np.float64)
    hits = res.status == 1
    # Scalar arithmetic for a fully-inside segment is (1.0 - 0.0) * dt,
    # which is exactly dt.
    dwell = np.where(hits, dt, 0.0)
    hits[res.rows] = res.hits
    # The scalar fold, ``total = 0.0; total += (s1 - s0) * dt`` over the
    # intervals in ascending order, one interval rank at a time.
    total = np.zeros(res.rows.size, dtype=np.float64)
    row_dt = dt[res.rows]
    for c in range(int(res.count.max(initial=0))):
        live = res.count > c
        total[live] += (res.hi[live, c] - res.lo[live, c]) * row_dt[live]
    dwell[res.rows] = total
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
    res = _resolve(polygon, x0, y0, x1, y1, obs, want_clips=False)
    hits = res.status == 1
    hits[res.rows] = res.hits
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
    res = _resolve(polygon, x0, y0, x1, y1, obs, want_hits=False)
    inside = res.status == 1
    inside[res.rows] = (
        (res.count == 1) & (res.lo[:, 0] == 0.0) & (res.hi[:, 0] == 1.0)
    )
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
