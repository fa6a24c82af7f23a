"""Vectorized segment-vs-polygon clip kernels.

The hot loops of the dwell/THROUGH machinery — the pre-agg builder, the
scans, the moving-object operations and the overlay path — all reduce
to "clip many trajectory segments against polygons".  The scalar path
(:meth:`Polygon.clip_segment` / :meth:`Polygon.intersects_segment`)
costs hundreds of Python bytecodes per segment.  This module batches it:
one call answers (polygon, segment) pairs of a whole :class:`EdgeTable`,
and a one-polygon call is the case of a table of one.

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

Point containment has a coarser exact shortcut: a :class:`PolygonPass`
labels the cells of a grid over its polygons once, and a cell far
enough from every edge box has one answer for every point in it, bit
for bit the one :func:`~repro.query.vectorized.pairs_contain` gives.
A segment whose box maps only to cells of one polygon's label is
decided the same way: its dwell is its ``dt``, with no kernel call
(:meth:`PolygonPass.dwell_pairs`; both arguments are in
:class:`PolygonPass`'s docstring).

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
from typing import Dict, Hashable, Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.errors import GeometryError
from repro.geometry.index import Grid, _cell, candidate_pairs
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

#: Most rows, and most (row, edge) elements, one pass of the pairwise
#: (segment x edge) work arrays takes: they bound its temporaries
#: whatever the polygons' sizes.  The row bound binds on city blocks (a
#: chunk of 1024 four-edge pairs peaks no higher than a per-polygon
#: call did), the element bound on polygons of more than 64 edges.
_CHUNK = 1024
_CHUNK_EDGES = 1 << 16

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


# -- edge tables --------------------------------------------------------------


class EdgeTable:
    """The boundaries of a polygon list as flat numpy vectors.

    ``ax/ay -> bx/by`` are the directed edges of polygon 0 (shell ring
    first, then each hole), then of polygon 1, and so on; ``dx/dy`` and
    ``len2`` their direction and squared length.  Polygon ``p`` owns
    edges ``edge_offsets[p]:edge_offsets[p + 1]`` and rings
    ``ring_first[p]:ring_first[p + 1]``; ring ``r`` is edges
    ``ring_offsets[r]:ring_offsets[r + 1]``.  Per polygon: its box
    ``b*``, boundary ``tolerance`` and far-field clearance ``clear2``.
    A kernel call takes a polygon position per row and limits every
    reduction over edges to the row's own.
    """

    def __init__(self, polygons: Iterable[Polygon]) -> None:
        self.polygons = tuple(polygons)
        ends: List[List[float]] = [[], [], [], []]
        rings, ring_first, edge_offsets = [0], [0], [0]
        boxes, tolerance = [], []
        for polygon in self.polygons:
            for ring in (polygon.shell, *polygon.holes):
                for p, q in zip(ring, ring[1:] + ring[:1]):
                    for column, value in zip(ends, (p.x, p.y, q.x, q.y)):
                        column.append(float(value))
                rings.append(len(ends[0]))
            ring_first.append(len(rings) - 1)
            edge_offsets.append(len(ends[0]))
            box = polygon.bbox
            boxes.append([box.min_x, box.min_y, box.max_x, box.max_y])
            # The same scale-relative tolerance Polygon.clip_segment uses
            # for its near-boundary rescue; the kernel demands 2x this
            # clearance before trusting parity alone.
            tolerance.append(1e-9 * max(box.width, box.height, 1.0))
        self.ax, self.ay, self.bx, self.by = (
            np.asarray(column, dtype=np.float64) for column in ends
        )
        self.dx, self.dy = self.bx - self.ax, self.by - self.ay
        self.len2 = self.dx * self.dx + self.dy * self.dy
        self.eminx, self.emaxx = np.minimum(self.ax, self.bx), np.maximum(self.ax, self.bx)
        self.eminy, self.emaxy = np.minimum(self.ay, self.by), np.maximum(self.ay, self.by)
        self.ring_offsets = np.asarray(rings, dtype=np.intp)
        self.ring_first = np.asarray(ring_first, dtype=np.intp)
        self.edge_offsets = np.asarray(edge_offsets, dtype=np.intp)
        self.bminx, self.bminy, self.bmaxx, self.bmaxy = np.array(
            [[float(v) for v in box] for box in boxes], dtype=np.float64
        ).reshape(-1, 4).T.copy()
        self.tolerance = np.array([float(t) for t in tolerance])
        self.clear2 = np.array([(2.0 * t) ** 2 for t in tolerance])


def polygon_edge_arrays(polygon: Polygon) -> EdgeTable:
    """The one-polygon :class:`EdgeTable`, built once and cached on it.

    Polygons are frozen (immutable), so the cache can never go stale;
    :meth:`Polygon.__getstate__` strips it, so pickled geometries stay
    lean.
    """
    cached = getattr(polygon, "_edge_arrays", None)
    if cached is None:
        cached = EdgeTable([polygon])
        object.__setattr__(polygon, "_edge_arrays", cached)
    return cached


#: The decided-cell grid (:class:`LabelGrid`): square cells,
#: ``_LABEL_SPAN`` across the polygons' extent (so at most
#: ``(_LABEL_SPAN + 1) ** 2`` cells), built once per pass, at its first
#: call over ``_LABEL_MIN_POINTS`` points or more.  Below that a store
#: fold (the sample pass builds the grid, the segment pass reads it)
#: costs more with the grid than without (docs/storage.md, "The
#: label-cell size"); a grid once built serves every later call.
_LABEL_SPAN = 128
_LABEL_MIN_POINTS = 1024

#: Float slop of the decided-cell test, relative to the largest
#: coordinate magnitude of the polygons: some four thousand ulps, against
#: the few ulps the crossing abscissa and the grown edge boxes round by.
_LABEL_SLOP = 2.0 ** -40

#: Cell labels besides a polygon position: inside no polygon, undecided.
OUTSIDE, MIXED = -1, -2


class LabelGrid:
    """Decided cells over a polygon pass: ``grid`` as the ``frame`` of
    a :class:`~repro.geometry.index.Grid` (points map to cells by the
    same clamped :func:`~repro.geometry.index._cell`), ``labels`` per
    cell ``col * rows + row``: a polygon position (every point of the
    cell lies inside that polygon and no other), :data:`OUTSIDE` (inside
    none) or :data:`MIXED` (undecided).

    Two summed-area tables of label changes, derived from ``labels``
    (and so never pickled), answer a box in one read
    (:meth:`decided`).  Both are ``(cols + 1) x (rows + 1)`` grids kept
    flat: ``across[c, r]`` counts the changes between columns ``c' < c``
    and ``c' + 1`` in rows ``< r``, ``up[c, r]`` those between rows
    ``r' < r`` and ``r' + 1`` in columns ``< c``."""

    __slots__ = ("grid", "labels", "across", "up")

    def __init__(
        self, grid: Tuple[float, float, float, int, int], labels: np.ndarray
    ) -> None:
        self.grid, self.labels = grid, labels
        cols, rows = grid[3], grid[4]
        cells = labels.reshape(cols, rows)
        across = np.zeros((cols + 1, rows + 1), dtype=np.int32)
        across[1:cols, 1:] = (cells[1:] != cells[:-1]).cumsum(0).cumsum(1)
        up = np.zeros((cols + 1, rows + 1), dtype=np.int32)
        up[1:, 1:rows] = (cells[:, 1:] != cells[:, :-1]).cumsum(0).cumsum(1)
        self.across, self.up = across.ravel(), up.ravel()

    def __reduce__(self):
        return LabelGrid, (self.grid, self.labels)

    def of(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Each point's cell label: one gather."""
        col, row = _cell(self.grid, x, y)
        return self.labels[col * self.grid[4] + row]

    def decided(self, x0, y0, x1, y1) -> np.ndarray:
        """Each box's label: the one label of the cell range its points
        map to (see :class:`PolygonPass` for what it proves), or
        :data:`MIXED` when the range holds more than one.  The range
        holds one label when neither table counts a change inside it:
        eight gathers, and one for the label."""
        c0, r0 = _cell(self.grid, x0, y0)
        c1, r1 = _cell(self.grid, x1, y1)
        stride = self.grid[4] + 1
        # The range's corners (c0, r0), (c1, r0), (c0, r1), (c1, r1).
        a, b = c0 * stride + r0, c1 * stride + r0
        c, d = c0 * stride + r1, c1 * stride + r1
        across, up = self.across, self.up
        changes = (
            across[d + 1] - across[c + 1] - across[b] + across[a]
            + up[d + stride] - up[c] - up[b + stride] + up[a]
        )
        return np.where(
            changes == 0, self.labels[c0 * self.grid[4] + r0], MIXED
        )

    def outside(self, x0, y0, x1, y1) -> np.ndarray:
        """Which boxes map only to :data:`OUTSIDE` cells, so meet no
        polygon: ``decided(...) == OUTSIDE``."""
        return self.decided(x0, y0, x1, y1) == OUTSIDE


def _label_geometry(edges: EdgeTable) -> Tuple[float, float, float, int, int]:
    """The decided-cell grid over the polygons' extent, the one
    cell-size rule: square cells ``_LABEL_SPAN`` across the longer side.
    A function of the polygons alone, so every pass over them (in this
    process or another) labels the same cells."""
    ox, oy = float(edges.bminx.min()), float(edges.bminy.min())
    width = float(edges.bmaxx.max()) - ox
    height = float(edges.bmaxy.max()) - oy
    size = max(width, height) / _LABEL_SPAN
    if not size > 0.0:
        size = 1.0
    return ox, oy, size, int(width // size) + 1, int(height // size) + 1


def _cover(grid, x0, y0, x1, y1, *weights) -> List[np.ndarray]:
    """Per cell and per weight vector, the sum of the weights of the
    boxes ``(x0, y0, x1, y1)`` some point of which maps to the cell: a
    2-D difference array, with no loop over boxes or cells."""
    _, _, _, cols, rows = grid
    c0, r0 = _cell(grid, x0, y0)
    c1, r1 = _cell(grid, x1, y1)
    c1, r1 = c1 + 1, r1 + 1
    stride = rows + 1
    corner = np.concatenate((
        c0 * stride + r0, c0 * stride + r1, c1 * stride + r0, c1 * stride + r1,
    ))
    return [
        np.bincount(
            corner, np.concatenate((weight, -weight, -weight, weight)),
            minlength=(cols + 1) * stride,
        ).reshape(cols + 1, stride).cumsum(axis=0).cumsum(axis=1)[
            :cols, :rows
        ].ravel()
        for weight in weights
    ]


def _label_grid(
    edges: EdgeTable, grid: Tuple[float, float, float, int, int]
) -> LabelGrid:
    """Label every cell of ``grid`` (array passes only; see
    :class:`PolygonPass` for why a label is every point's answer).

    A point maps to a cell by a monotone function of each coordinate, so
    the cells a box's points can map to are the range between its
    corners' cells.  A cell that no point of a polygon box maps to is
    :data:`OUTSIDE`.  A cell that points of two polygon boxes map to,
    or a point within ``2 x tolerance + slop`` of an edge box, is
    :data:`MIXED`.  The other cells take the even-odd parity against
    their one polygon at one centre per run of such cells down a grid
    column: two adjacent cells make one product set, which the argument
    covers as it covers a cell.  (A run whose head's centre maps to
    another cell stays :data:`MIXED`.)
    """
    ox, oy, size, cols, rows = grid
    scale = float(np.abs([
        edges.bminx.min(), edges.bminy.min(),
        edges.bmaxx.max(), edges.bmaxy.max(),
    ]).max())
    per_edge = np.diff(edges.edge_offsets)
    margin = np.repeat(2.0 * edges.tolerance, per_edge) + _LABEL_SLOP * scale
    near = _cover(
        grid, edges.eminx - margin, edges.eminy - margin,
        edges.emaxx + margin, edges.emaxy + margin, np.ones(margin.size),
    )[0] > 0
    # Where one box covers a cell, the sum of positions is its own.
    count, owner = _cover(
        grid, edges.bminx, edges.bminy, edges.bmaxx, edges.bmaxy,
        np.ones(edges.bminx.size), np.arange(edges.bminx.size, dtype=float),
    )
    # The narrowest signed type that holds every position and MIXED.
    dtype = np.min_scalar_type(-edges.tolerance.size)
    labels = np.full(cols * rows, OUTSIDE, dtype=dtype)
    labels[(count > 1) | ((count == 1) & near)] = MIXED
    cell = np.flatnonzero((count == 1) & ~near)
    if cell.size:
        pos = owner[cell].astype(np.intp)
        # Runs of adjacent cells down a grid column with one polygon.
        opens = np.ones(cell.size, dtype=bool)
        opens[1:] = (np.diff(cell) != 1) | (np.diff(pos) != 0)
        opens |= cell % rows == 0
        run, head = np.cumsum(opens) - 1, np.flatnonzero(opens)
        col, row = np.divmod(cell[head], rows)
        cx, cy = ox + (col + 0.5) * size, oy + (row + 0.5) * size
        home_col, home_row = _cell(grid, cx, cy)
        # pairs_contain's even-odd rule, at the head cell's centre.
        parity, shell = _ring_parity(edges, pos[head], cx, cy)
        inside = (np.add.reduceat(parity, shell) & 1).astype(bool)
        labels[cell] = np.where(inside, pos[head], OUTSIDE)[run]
        away = (home_col != col) | (home_row != row)
        labels[cell[away[run]]] = MIXED
    return LabelGrid(grid, labels)


class PolygonPass:
    """One pass over a polygon list: its edge table (for the kernels),
    its :class:`~repro.geometry.index.Grid` (for the broad phase) and,
    once a call brings enough points to pay for it, a :class:`LabelGrid`
    of decided cells (:meth:`labels_for`; for point containment and
    segments in one label's cells); position ``p`` is the list's
    ``p``-th polygon in all of them.  The label grid is the finest
    (``_LABEL_SPAN`` cells across), whichever call builds it, so a pass
    shared by many callers (a layer's, :meth:`repro.gis.layer.Layer
    .geometry_index`) decides the same cells for all of them.  Nothing
    below depends on the cell size: every grid decides exactly.

    **Decided cells are exact.**  A cell is *decided* for polygon ``p``
    when no edge box of ``p``, grown by ``2 x tolerance`` plus a float
    slop (``_LABEL_SLOP`` of the coordinate magnitude), holds a point
    that maps to the cell.  Then for every point that does:

    * *Far field.*  It is at least ``2 x tolerance`` from every edge of
      ``p``, so the boundary band of
      :func:`~repro.query.vectorized.pairs_contain` cannot fire: its
      answer is the even-odd parity.
    * *Constant parity.*  The points of a cell are a product of two
      intervals, so every edge box of ``p`` misses the cell on one side.
      An edge above or below it has a constant crossing condition
      ``(ay > y) != (by > y)``: false.  An edge left or right of it has
      a computed ``x_cross`` within its own x-extent up to a few ulps
      (each operation rounds monotonically), so ``x < x_cross`` is
      constant: false on the left, true on the right.  The parity is
      then the XOR of the crossing conditions of the right-hand edges
      whose y-range meets the cell's.  Along a ring these come in
      chains, and a chain's conditions telescope to ``(y_start > y) !=
      (y_end > y)``.  A chain ends at a vertex shared with an edge above,
      below or to the left of the cell; the first two put the vertex's
      y outside the cell's y-range, and the last is impossible (the
      vertex would be both right and left of the cell).  So each term is
      constant over the cell, and so is the parity.
    * So the parity at the cell centre is every point's answer, bit for
      bit, for each polygon whose box the cell meets; a point outside a
      polygon's box maps to no cell that meets it.

    A cell that meets no polygon box is :data:`OUTSIDE`; one that meets
    exactly one polygon's box and is decided for it is labelled with
    that polygon when its centre lies inside, else :data:`OUTSIDE`; all
    others (boxes overlap there, or an edge is near) are :data:`MIXED`.
    Under the ``scalar`` backend no cell is decided.

    **A box of one label is decided.**  Every point of a box maps, by
    the monotone clamped ``_cell``, into the range between its corners'
    cells (a border cell takes the points beyond the extent too), and
    the argument above holds for every point that maps to a cell.  Let
    the range hold one label (:meth:`LabelGrid.decided`).

    * *Label* ``p``.  Each point of the box lies inside ``p`` and
      outside every grown edge box of ``p``, so at least ``2 x
      tolerance`` from every edge of ``p``.  The box lies inside ``p``'s
      box (its corners do), so the broad phase pairs it with ``p``; it
      meets no other polygon's box, for a point in both would map to a
      cell that box's range covers too, and a cell covered by two ranges
      is :data:`MIXED`.  So a segment in it has one broad-phase pair,
      ``(p, segment)``: the scalar ``Polygon.clip_segment`` finds no
      boundary contact and an inside midpoint, ``[(0.0, 1.0)]``, whose
      dwell is ``(1.0 - 0.0) * dt``, exactly ``dt``, and a hit
      (:meth:`dwell_pairs` writes both in place, with no kernel call).
    * :data:`OUTSIDE`, the special case :meth:`LabelGrid.outside`.
      Each point of the box lies in no polygon box, or outside its one
      polygon and outside every (grown) edge box.  No point of a segment
      in it is in a closed polygon or on a boundary edge, which is the
      scalar ``Polygon.intersects_segment``'s ``False``: the through
      scan drops such a segment before the broad phase.  (The dwell
      pass still pairs it: a polygon box can meet it, and the pair's
      zero keeps :func:`polygon_sums`' pairwise sums as they were.)
    """

    __slots__ = ("edges", "grid", "labels")

    def __init__(
        self, edges: EdgeTable, grid: Grid, labels: Optional[LabelGrid] = None
    ) -> None:
        self.edges, self.grid = edges, grid
        #: The decided-cell grid once built (None before).
        self.labels = labels

    @classmethod
    def of(cls, polygons: Dict[Hashable, Polygon]) -> "PolygonPass":
        """Over ``polygons`` in dict order, with a new grid."""
        return cls(EdgeTable(polygons.values()), Grid.of(polygons))

    def labels_for(self, points: int) -> Optional[LabelGrid]:
        """The decided-cell grid for a call over ``points`` points:
        built at the first call over at least ``_LABEL_MIN_POINTS``
        points (the finest, :func:`_label_geometry`) and kept from then
        on; None before that and under the ``scalar`` backend."""
        if _backend == "scalar":
            return None
        if self.labels is None:
            if points < _LABEL_MIN_POINTS:
                return None
            self.labels = _label_grid(self.edges, _label_geometry(self.edges))
        return self.labels

    def dwell_pairs(
        self, batch, rows: Optional[np.ndarray] = None,
        keep: Optional[np.ndarray] = None, obs=None,
    ) -> Tuple[np.ndarray, ...]:
        """The dwell pass over the segments ``rows`` (ascending) of a
        :class:`~repro.mo.moft.SegmentBatch` (default: all of them):
        ``(pos, at, dwell, hits)``, one entry per broad-phase pair of
        polygon ``pos[i]`` and batch segment ``at[i]``, sorted by position
        and then by segment, with :func:`pairs_dwell`'s dwell and hit.
        ``keep``, a mask over positions, keeps only its polygons' pairs.

        A segment whose box :meth:`LabelGrid.decided` puts inside polygon
        ``p`` (on the grid :meth:`labels_for` gives) takes no broad phase
        and no kernel: its one pair ``(p, segment)`` gets ``dt`` and a hit
        in place (the class docstring has the proof), so the pairs and
        every value are the undecided pass's, bit for bit.
        ``cell_decided_segments`` counts those segments into ``obs``; the
        others take the broad phase, and their pairs the kernel.
        """
        boxes = batch.boxes(rows)
        n = boxes[0].shape[0]
        labels = self.labels_for(n)
        label = (np.full(n, MIXED) if labels is None
                 else labels.decided(*boxes))
        inside = np.flatnonzero(label >= 0)
        if inside.size:
            rest = np.flatnonzero(label < 0)
            pos, at = candidate_pairs(self.grid, *(v[rest] for v in boxes))
            # The broad phase's pairs are one run sorted by (position,
            # segment): a stable sort merges the decided pairs into it.
            key = np.sort(np.concatenate((
                pos * n + rest[at], label[inside].astype(np.intp) * n + inside,
            )), kind="stable")
            pos, at = np.divmod(key, n)
            if obs is not None:
                obs.incr("cell_decided_segments", inside.size)
            hits = label[at] >= 0
        else:
            pos, at = candidate_pairs(self.grid, *boxes)
            hits = np.zeros(pos.shape[0], dtype=bool)
        if keep is not None:
            wanted = keep[pos]
            pos, at, hits = pos[wanted], at[wanted], hits[wanted]
        if rows is not None:
            at = rows[at]
        dt = batch.t1[at] - batch.t0[at]
        dwell = np.where(hits, dt, 0.0)
        check = np.flatnonzero(~hits)
        dwell[check], hits[check] = pairs_dwell(
            self.edges, pos[check], *batch.ends(at[check]), dt[check], obs
        )
        return pos, at, dwell, hits


def _one(polygon: Polygon, n: int) -> Tuple[EdgeTable, np.ndarray]:
    """The one-polygon case: its table, and position 0 for ``n`` rows."""
    return polygon_edge_arrays(polygon), np.zeros(n, dtype=np.intp)


def _pair_edges(
    edges: EdgeTable, pos: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's edges, row-major: how many (row, edge) elements each
    row has (``np.repeat(v, count)`` spreads a row value over them), the
    edge of every element, and where each row's run starts."""
    first = edges.edge_offsets[pos]
    count = edges.edge_offsets[pos + 1] - first
    end = np.cumsum(count)
    start = end - count
    shift = first - start
    if count.size and (count == count[0]).all():
        # One polygon size (the common case): a scalar repeat is a copy.
        count = int(count[0])
    edge = np.arange(int(end[-1]) if end.size else 0)
    return count, edge + np.repeat(shift, count), start


def _chunks(
    edges: EdgeTable, pos: np.ndarray, scale: int = 1
) -> List[Tuple[int, int]]:
    """Row ranges of at most ``scale x _CHUNK`` rows and (about) ``scale
    x _CHUNK_EDGES`` (row, edge) elements: what bounds every pairwise
    work array (a pass with fewer arrays alive can take a larger
    ``scale``)."""
    end = np.cumsum(np.diff(edges.edge_offsets)[pos])
    out, lo = [], 0
    while lo < pos.size:
        base = int(end[lo - 1]) if lo else 0
        hi = int(np.searchsorted(end, base + scale * _CHUNK_EDGES, side="right"))
        hi = min(max(hi, lo + 1), lo + scale * _CHUNK)
        out.append((lo, hi))
        lo = hi
    return out


# -- classification -----------------------------------------------------------


def _ring_parity(
    edges: EdgeTable, pos: np.ndarray, px: np.ndarray, py: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized even-odd ray cast of each point against each ring of
    its polygon.

    Evaluates exactly the expressions of
    :func:`repro.geometry.polygon._point_in_ring` — crossing condition
    ``(ay > y) != (by > y)`` and ``x < ax + (y - ay) * (bx - ax) /
    (by - ay)`` — so for any point the result is bit-identical to the
    scalar loop.  Returns the parity (0/1) of every (point, ring), point
    by point, and the index of each point's shell among them.
    """
    count, edge, start = _pair_edges(edges, pos)
    y = np.repeat(py, count)
    ay, by = edges.ay[edge], edges.by[edge]
    cond = (ay > y) != (by > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = edges.ax[edge] + (y - ay) * edges.dx[edge] / (by - ay)
        hits = cond & (np.repeat(px, count) < x_cross)
    first_ring = edges.ring_first[pos]
    n_rings = edges.ring_first[pos + 1] - first_ring
    shell = np.cumsum(n_rings) - n_rings
    owner = np.repeat(np.arange(pos.size), n_rings)
    ring = np.arange(owner.size) - shell[owner] + first_ring[owner]
    ring_start = (
        start[owner] + edges.ring_offsets[ring] - edges.edge_offsets[pos[owner]]
    )
    return np.add.reduceat(hits.astype(np.intp), ring_start) & 1, shell


def _points_inside(
    edges: EdgeTable, pos: np.ndarray, px: np.ndarray, py: np.ndarray
) -> np.ndarray:
    """Parity containment (shell AND NOT any hole) for far-field points."""
    if not pos.size:
        return np.zeros(0, dtype=bool)
    parity, shell = _ring_parity(edges, pos, px, py)
    holes = np.add.reduceat(parity, shell) - parity[shell]
    return (parity[shell] == 1) & (holes == 0)


def _min_dist2_to_edges(
    edges: EdgeTable, pos: np.ndarray, px: np.ndarray, py: np.ndarray
) -> np.ndarray:
    """Squared distance from each point to the nearest edge of its
    polygon."""
    if not pos.size:
        return np.zeros(0)
    count, edge, start = _pair_edges(edges, pos)
    dx, dy, len2 = edges.dx[edge], edges.dy[edge], edges.len2[edge]
    rx = np.repeat(px, count) - edges.ax[edge]
    ry = np.repeat(py, count) - edges.ay[edge]
    safe = np.where(len2 > 0.0, len2, 1.0)
    tproj = np.clip((rx * dx + ry * dy) / safe, 0.0, 1.0)
    tproj = np.where(len2 > 0.0, tproj, 0.0)
    cx = rx - tproj * dx
    cy = ry - tproj * dy
    return np.minimum.reduceat(cx * cx + cy * cy, start)


def _classify(
    edges: EdgeTable,
    pos: np.ndarray,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
) -> np.ndarray:
    """Status codes 0/1/2 of segment ``i`` vs polygon ``pos[i]`` (one
    chunk of rows)."""
    n = x0.shape[0]
    status = np.full(n, 2, dtype=np.uint8)
    if kernel_backend() == "scalar":
        return status
    sminx = np.minimum(x0, x1)
    smaxx = np.maximum(x0, x1)
    sminy = np.minimum(y0, y1)
    smaxy = np.maximum(y0, y1)
    disjoint = (
        (sminx > edges.bmaxx[pos])
        | (smaxx < edges.bminx[pos])
        | (sminy > edges.bmaxy[pos])
        | (smaxy < edges.bminy[pos])
    )
    status[disjoint] = 0
    idx = np.nonzero(~disjoint)[0]
    if idx.size == 0:
        return status

    cx0, cy0 = x0[idx], y0[idx]
    cx1, cy1 = x1[idx], y1[idx]
    # Each row against its own polygon's edges, as (row, edge) elements.
    count, edge, start = _pair_edges(edges, pos[idx])

    def spread(values):
        return np.repeat(values, count)

    ax, ay, bx, by = edges.ax[edge], edges.ay[edge], edges.bx[edge], edges.by[edge]
    # Pairwise (segment x edge) bbox overlap.
    overlap = ~(
        (spread(sminx[idx]) > edges.emaxx[edge])
        | (spread(smaxx[idx]) < edges.eminx[edge])
        | (spread(sminy[idx]) > edges.emaxy[edge])
        | (spread(smaxy[idx]) < edges.eminy[edge])
    )
    # Separation by the segment's supporting line: both edge endpoints
    # strictly (beyond the uncertainty band) on one side.
    dsx = spread(cx1 - cx0)
    dsy = spread(cy1 - cy0)
    sx0, sy0 = spread(cx0), spread(cy0)
    rax = ax - sx0
    ray = ay - sy0
    rbx = bx - sx0
    rby = by - sy0
    d1 = dsx * ray - dsy * rax
    d2 = dsx * rby - dsy * rbx
    b1 = _SEP_EPS * (np.abs(dsx) * np.abs(ray) + np.abs(dsy) * np.abs(rax))
    b2 = _SEP_EPS * (np.abs(dsx) * np.abs(rby) + np.abs(dsy) * np.abs(rbx))
    sep_seg = ((d1 > b1) & (d2 > b2)) | ((d1 < -b1) & (d2 < -b2))
    # Separation by the edge's supporting line: both segment endpoints
    # strictly on one side.
    dex = edges.dx[edge]
    dey = edges.dy[edge]
    r1x = spread(cx1) - ax
    r1y = spread(cy1) - ay
    d3 = dex * (-ray) - dey * (-rax)
    d4 = dex * r1y - dey * r1x
    b3 = _SEP_EPS * (np.abs(dex) * np.abs(ray) + np.abs(dey) * np.abs(rax))
    b4 = _SEP_EPS * (np.abs(dex) * np.abs(r1y) + np.abs(dey) * np.abs(r1x))
    sep_edge = ((d3 > b3) & (d4 > b4)) | ((d3 < -b3) & (d4 < -b4))
    contact = overlap & ~sep_seg & ~sep_edge
    # A zero-length segment is one point: the far-field rule below is
    # all its scalar answer (contains_point) depends on.
    clean = ~np.logical_or.reduceat(contact, start) | (
        (cx0 == cx1) & (cy0 == cy1)
    )
    # (The (row, edge) arrays go before the far-field pass allocates.)
    del ax, ay, bx, by, overlap, rax, ray, rbx, rby, d1, d2, d3, d4
    del b1, b2, b3, b4, dsx, dsy, sx0, sy0, dex, dey, r1x, r1y, contact
    del sep_seg, sep_edge
    if not clean.any():
        return status

    kept = idx[clean]
    kpos = pos[kept]
    kx0, ky0 = x0[kept], y0[kept]
    kx1, ky1 = x1[kept], y1[kept]
    # Midpoint exactly as the scalar path: Segment.point_at(0.5) is
    # start + 0.5 * (end - start), NOT (start + end) / 2.
    mx = kx0 + 0.5 * (kx1 - kx0)
    my = ky0 + 0.5 * (ky1 - ky0)
    pts_x = np.concatenate([kx0, mx, kx1])
    pts_y = np.concatenate([ky0, my, ky1])
    d2min = _min_dist2_to_edges(
        edges, np.tile(kpos, 3), pts_x, pts_y
    ).reshape(3, kept.size)
    far = (d2min >= edges.clear2[kpos]).all(axis=0)
    if not far.any():
        return status
    final = kept[far]
    inside = _points_inside(edges, kpos[far], mx[far], my[far])
    status[final] = np.where(inside, 1, 0).astype(np.uint8)
    return status


def _float_columns(*columns) -> List[np.ndarray]:
    return [np.ascontiguousarray(c, dtype=np.float64) for c in columns]


# -- boundary crossings -------------------------------------------------------


def _solve_crossings(
    edges: EdgeTable,
    pos: np.ndarray,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clip the plain transversal crossings among one chunk of rows
    (row ``i`` against polygon ``pos[i]``).

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

    per_row, edge, start = _pair_edges(edges, pos)
    rx = np.repeat(x1 - x0, per_row)
    ry = np.repeat(y1 - y0, per_row)
    qx = edges.dx[edge]
    qy = edges.dy[edge]
    wx = edges.ax[edge] - np.repeat(x0, per_row)
    wy = edges.ay[edge] - np.repeat(y0, per_row)
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
    n_cuts = np.add.reduceat(cut.astype(np.intp), start)
    solvable = (
        np.logical_and.reduceat(decided, start)
        & (n_cuts >= 1) & (n_cuts <= _MAX_CUTS)
    )
    rows = np.flatnonzero(solvable)
    if rows.size == 0:
        return lo, hi, count

    # bounds[i] = [0.0, cuts ascending ..., 1.0, 1.0 ...]; piece j of a
    # row is (bounds[j], bounds[j + 1]) for j <= its number of cuts.
    n_cuts = n_cuts[rows]
    width = int(n_cuts.max())
    taken = cut & np.repeat(solvable, per_row)
    row = np.repeat(np.cumsum(solvable) - 1, per_row)[taken]
    cuts = s[taken][np.lexsort((s[taken], row))]
    k = np.arange(cuts.size) - np.repeat(np.cumsum(n_cuts) - n_cuts, n_cuts)
    bounds = np.ones((rows.size, width + 2), dtype=np.float64)
    bounds[:, 0] = 0.0
    bounds[np.repeat(np.arange(rows.size), n_cuts), 1 + k] = cuts
    is_piece = np.arange(width + 1)[None, :] <= n_cuts[:, None]
    spaced = ((np.diff(bounds, axis=1) > _CUT_GAP) | ~is_piece).all(axis=1)
    rows, bounds, is_piece = rows[spaced], bounds[spaced], is_piece[spaced]

    r, j = np.nonzero(is_piece)
    at = rows[r]
    mid = (bounds[r, j] + bounds[r, j + 1]) / 2
    # Far field (>= 2 x tolerance from every edge) and parity
    # containment (exact there) of each piece midpoint.
    px, py = x0[at] + mid * (x1[at] - x0[at]), y0[at] + mid * (y1[at] - y0[at])
    far = _min_dist2_to_edges(edges, pos[at], px, py) >= edges.clear2[pos[at]]
    inside = np.zeros(is_piece.shape, dtype=bool)
    inside[r, j] = _points_inside(edges, pos[at], px, py)
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
    its polygon, and its ``count`` clip intervals ``(lo[k, i], hi[k,
    i])``.
    """

    status: np.ndarray
    rows: np.ndarray
    hits: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    count: np.ndarray


def _resolve(
    edges: EdgeTable,
    pos: np.ndarray,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    obs,
    want_hits: bool = True,
    want_clips: bool = True,
) -> _Resolved:
    """Classify one chunk of (polygon position, segment) pairs, then
    answer its status-2 rows: boundary crossings in batch, the rest
    through the scalar methods.

    The scalar loop computes :meth:`Polygon.intersects_segment` when
    ``want_hits`` and :meth:`Polygon.clip_segment` when ``want_clips``;
    with both it clips only the segments that hit, as the dwell fold
    always has.  Fields not asked for are not meaningful.
    """
    status = _classify(edges, pos, x0, y0, x1, y1)
    rows = np.flatnonzero(status == 2)
    lo = np.zeros((rows.size, _MAX_CUTS // 2 + 1), dtype=np.float64)
    hi = np.zeros_like(lo)
    count = np.zeros(rows.size, dtype=np.intp)
    if rows.size and kernel_backend() != "scalar":
        lo, hi, count = _solve_crossings(
            edges, pos[rows], x0[rows], y0[rows], x1[rows], y1[rows]
        )
    hits = count > 0
    scalar = np.flatnonzero(~hits)
    for k, i in zip(scalar.tolist(), rows[scalar].tolist()):
        polygon = edges.polygons[pos[i]]
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


def _resolved(edges, pos, x0, y0, x1, y1, obs, want_hits=True, want_clips=True):
    """:func:`_resolve`, one call per chunk of pairs: ``(rows, answer)``."""
    x0, y0, x1, y1 = _float_columns(x0, y0, x1, y1)
    for lo, hi in _chunks(edges, pos):
        part = slice(lo, hi)
        yield part, _resolve(
            edges, pos[part], x0[part], y0[part], x1[part], y1[part], obs,
            want_hits, want_clips,
        )


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
    out: List[List[Tuple[float, float]]] = []
    for part, res in _resolved(
        *_one(polygon, len(x0)), x0, y0, x1, y1, obs, want_hits=False
    ):
        clips = [[(0.0, 1.0)] if s == 1 else [] for s in res.status.tolist()]
        for i, n, los, his in zip(
            res.rows.tolist(), res.count.tolist(), res.lo.tolist(),
            res.hi.tolist(),
        ):
            clips[i] = list(zip(los[:n], his[:n]))
        out += clips
    return out


def pairs_dwell(
    edges: EdgeTable,
    pos: np.ndarray,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    dt: np.ndarray,
    obs=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Dwell time of segment ``i`` inside polygon ``pos[i]`` plus the
    intersection mask: :func:`segments_dwell` over broad-phase pairs."""
    dt = np.asarray(dt, dtype=np.float64)
    dwell, hits = np.zeros(dt.shape[0]), np.zeros(dt.shape[0], dtype=bool)
    for part, res in _resolved(edges, pos, x0, y0, x1, y1, obs):
        # Scalar arithmetic for a fully-inside segment is (1.0 - 0.0) *
        # dt, which is exactly dt.
        hits[part] = res.status == 1
        dwell[part] = np.where(hits[part], dt[part], 0.0)
        hits[part][res.rows] = res.hits
        # The scalar fold, ``total = 0.0; total += (s1 - s0) * dt`` over
        # the intervals in ascending order, one interval rank at a time.
        total = np.zeros(res.rows.size, dtype=np.float64)
        row_dt = dt[part][res.rows]
        for c in range(int(res.count.max(initial=0))):
            live = res.count > c
            total[live] += (res.hi[live, c] - res.lo[live, c]) * row_dt[live]
        dwell[part][res.rows] = total
    return dwell, hits


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
    return pairs_dwell(*_one(polygon, len(x0)), x0, y0, x1, y1, dt, obs)


def pairs_intersect(
    edges: EdgeTable,
    pos: np.ndarray,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    obs=None,
) -> np.ndarray:
    """Does segment ``i`` meet polygon ``pos[i]``: :func:`segments_intersect`
    over broad-phase pairs."""
    hits = np.zeros(pos.shape[0], dtype=bool)
    for part, res in _resolved(
        edges, pos, x0, y0, x1, y1, obs, want_clips=False
    ):
        hits[part] = res.status == 1
        hits[part][res.rows] = res.hits
    return hits


def segments_intersect(
    polygon: Polygon,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    obs=None,
) -> np.ndarray:
    """Per-segment :meth:`Polygon.intersects_segment`, batched."""
    return pairs_intersect(*_one(polygon, len(x0)), x0, y0, x1, y1, obs)


def segments_fully_inside(
    polygon: Polygon,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    obs=None,
) -> np.ndarray:
    """Per-segment "clip == [(0.0, 1.0)]" — full containment, batched."""
    inside = np.zeros(len(x0), dtype=bool)
    for part, res in _resolved(
        *_one(polygon, len(x0)), x0, y0, x1, y1, obs, want_hits=False
    ):
        inside[part] = res.status == 1
        inside[part][res.rows] = (
            (res.count == 1) & (res.lo[:, 0] == 0.0) & (res.hi[:, 0] == 1.0)
        )
    return inside


def polygon_sums(
    pos: np.ndarray, values: np.ndarray, positions: Iterable[int]
) -> List[float]:
    """``float(values[pos == p].sum())`` for each ``p`` of ``positions``
    (``pos`` ascending): what a loop over the polygons summed."""
    positions = list(positions)
    lo = np.searchsorted(pos, positions, side="left").tolist()
    hi = np.searchsorted(pos, positions, side="right").tolist()
    return [float(values[a:b].sum()) for a, b in zip(lo, hi)]


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
    cx: Union[float, np.ndarray],
    cy: Union[float, np.ndarray],
    r: Union[float, np.ndarray],
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    obs=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched :func:`disc_clip_scalar` over segment arrays.

    ``cx``, ``cy`` and ``r`` are one disc (scalars) or one disc per
    segment (arrays as long as ``x0``), which clips (disc, segment)
    pairs in one call.  Bitwise-identical to the scalar fold: every
    element goes through the same expression sequence (products,
    discriminant, sqrt, division, branch-style clamp), just vectorized.
    The ``scalar`` kernel backend routes through the reference loop
    outright.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    y1 = np.asarray(y1, dtype=np.float64)
    cx, cy, r = (np.asarray(v, dtype=np.float64) for v in (cx, cy, r))
    n = x0.shape[0]
    if obs is not None:
        obs.incr("disc_kernel_segments", n)
    if kernel_backend() == "scalar":
        lo = np.zeros(n, dtype=np.float64)
        hi = np.zeros(n, dtype=np.float64)
        rows = zip(*(
            np.broadcast_to(v, (n,)).tolist() for v in (cx, cy, r, x0, y0, x1, y1)
        ))
        for i, row in enumerate(rows):
            lo[i], hi[i] = disc_clip_scalar(*row)
        return lo, hi
    dx = x1 - x0
    dy = y1 - y0
    fx = x0 - cx
    fy = y0 - cy
    rr = r * r
    a = dx * dx + dy * dy
    c = fx * fx + fy * fy - rr
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
        # A per-segment disc is read at the solved rows, a scalar as is.
        cx, cy, rr = (v[solve] if v.ndim else v for v in (cx, cy, rr))
        sq = np.sqrt(disc[solve])
        aa = a[solve]
        bb = b[solve]
        w1 = (-bb - sq) / aa
        w2 = (-bb + sq) / aa
        gx = x1[solve] - cx
        gy = y1[solve] - cy
        c1 = gx * gx + gy * gy - rr
        lo[solve] = np.where(
            (c[solve] <= 0.0) | (w1 < 0.0), 0.0, np.where(w1 > 1.0, 1.0, w1)
        )
        hi[solve] = np.where(
            (c1 <= 0.0) | (w2 > 1.0), 1.0, np.where(w2 < 0.0, 0.0, w2)
        )
    return lo, hi


__all__ = [
    "EdgeTable",
    "LabelGrid",
    "MIXED",
    "OUTSIDE",
    "PolygonPass",
    "clip_segments_batch",
    "disc_clip_batch",
    "disc_clip_scalar",
    "kernel_backend",
    "pairs_dwell",
    "pairs_intersect",
    "polygon_edge_arrays",
    "polygon_sums",
    "segments_dwell",
    "segments_fully_inside",
    "segments_intersect",
    "set_kernel_backend",
]
