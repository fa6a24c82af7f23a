"""The uniform grid over a geometry set.

The Piet evaluation strategy (Section 5 of the paper) precomputes layer
overlays and then intersects trajectory segments with the geometries
returned by the geometric subquery.  Both steps need a candidate filter:
given a bounding box, which geometries can possibly meet it?  A uniform
grid answers this in O(cells touched) and is trivially correct, which
suits a reproduction better than a tuned R-tree.

:class:`Grid` is that filter, built once per geometry set
(:meth:`Grid.of`) and never changed: :func:`candidate_pairs` maps a
batch of segment boxes, or points, to its ``(geometry position,
segment)`` pairs in one vectorized pass, in memory O(segments + pairs),
and :meth:`Grid.query_point` answers one point.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, NamedTuple, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.point import Point


class Grid(NamedTuple):
    """A uniform grid over an ordered geometry list, as arrays:
    ``frame`` is ``(origin x, origin y, cell size, cols, rows)``, cell
    ``col * rows + row`` holds the positions ``members[offsets[c]:
    offsets[c + 1]]`` whose boxes meet it, ``boxes`` is ``(min_x,
    min_y, max_x, max_y)`` per position and ``first`` the ``(col,
    row)`` of its min corner.  Coordinates are floats: a closed-box test
    on them keeps every pair the exact boxes meet (rounding is
    monotone)."""

    frame: Tuple[float, float, float, int, int]
    boxes: Tuple[np.ndarray, ...]
    first: Tuple[np.ndarray, np.ndarray]
    offsets: np.ndarray
    members: np.ndarray

    @classmethod
    def of(cls, geometries: Dict[Hashable, object]) -> "Grid":
        """The grid over ``geometries`` (``id -> geometry``), position
        ``i`` being the ``i``-th in dict order.

        Every geometry exposes a ``bbox`` (a Point is its own box).  The
        cell size is on the order of one geometry per cell, but no wider
        than the median geometry (so a probe seldom shares a cell with a
        box it misses), and not so fine that the grid has more than
        about 16 cells per geometry.
        """
        if not geometries:
            raise GeometryError("cannot index an empty geometry collection")
        boxes = boxes_of(geometries)
        x0, y0, x1, y1 = boxes
        left, bottom = float(x0.min()), float(y0.min())
        right, top = float(x1.max()), float(y1.max())
        span = max(right - left, top - bottom)
        if span == 0:
            size = 1.0
        else:
            root = max(1.0, math.sqrt(x0.size))
            median = float(np.sort(np.maximum(x1 - x0, y1 - y0))[x0.size // 2])
            size = max(min(span / root, median), span / (4 * root))
        ox, oy = left - size, bottom - size
        frame = (
            ox, oy, size,
            max(1, math.ceil((right + size - ox) / size)),
            max(1, math.ceil((top + size - oy) / size)),
        )
        c0, r0 = _cell(frame, x0, y0)
        owner, col, row, _ = _box_cells(c0, r0, *_cell(frame, x1, y1))
        cell = col * frame[4] + row
        counts = np.bincount(cell, minlength=frame[3] * frame[4])
        return cls(
            frame, boxes, (c0, r0), np.concatenate(([0], np.cumsum(counts))),
            owner[np.argsort(cell, kind="stable")],
        )

    def query_point(self, x: float, y: float) -> List[int]:
        """The positions whose box holds the point ``(x, y)``: the
        members of its cell (:func:`_cell` on one point), box-tested."""
        x, y = float(x), float(y)
        ox, oy, size, cols, rows = self.frame
        cell = (
            int(min(max((x - ox) / size, 0), cols - 1)) * rows
            + int(min(max((y - oy) / size, 0), rows - 1))
        )
        bx0, by0, bx1, by1 = self.boxes
        return [
            p for p in self.members[
                self.offsets[cell]:self.offsets[cell + 1]
            ].tolist()
            if bx0[p] <= x <= bx1[p] and by0[p] <= y <= by1[p]
        ]


def boxes_of(geometries: Dict[Hashable, object]) -> Tuple[np.ndarray, ...]:
    """``(min_x, min_y, max_x, max_y)`` of ``geometries`` in dict order
    (a Point is its own box): the boxes a :class:`Grid` holds, or the
    probes of a broad phase against one."""
    corners = np.array([
        (geom.x, geom.y, geom.x, geom.y) if isinstance(geom, Point)
        else (geom.bbox.min_x, geom.bbox.min_y,
              geom.bbox.max_x, geom.bbox.max_y)
        for geom in geometries.values()
    ], dtype=np.float64).reshape(-1, 4)
    return tuple(corners.T)


def _cell(frame, x, y):
    """``(col, row)`` of points, clamped to the grid ``frame``: monotone
    in each coordinate, which is what finds a pair in exactly one cell."""
    ox, oy, size, cols, rows = frame
    col = np.clip((x - ox) / size, 0, cols - 1).astype(np.intp)
    return col, np.clip((y - oy) / size, 0, rows - 1).astype(np.intp)


def _box_cells(c0, r0, c1, r1):
    """Every cell of each cell range as ``(owner, col, row)``, and how
    many leading entries are whole ranges: ranges of one cell (most
    segments, every point) come first, unexpanded, then the others'
    cells; each part in owner order."""
    many = (c0 != c1) | (r0 != r1)
    if not many.any():
        return np.arange(c0.size), c0, r0, c0.size
    one, many = np.flatnonzero(~many), np.flatnonzero(many)
    height = r1[many] - r0[many] + 1
    count = (c1[many] - c0[many] + 1) * height
    at = np.repeat(np.arange(many.size), count)
    k = np.arange(at.size) - (np.cumsum(count) - count)[at]
    return (
        np.concatenate((one, many[at])),
        np.concatenate((c0[one], c0[many][at] + k // height[at])),
        np.concatenate((r0[one], r0[many][at] + k % height[at])),
        one.size,
    )


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable order of keys in ``[0, bound)``: a radix sort while they
    fit in 16 bits."""
    return np.argsort(keys.astype(np.min_scalar_type(-bound)), kind="stable")


def candidate_pairs(
    grid: Grid,
    min_x: np.ndarray,
    min_y: np.ndarray,
    max_x: np.ndarray,
    max_y: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The broad phase: ``(position, segment)`` of every geometry box
    that meets a segment box (a point is a box with ``min == max``).

    Exactly the pairs of the brute-force closed-box test, each once,
    sorted by position and then by segment.  Each segment visits the
    cells of its box; a pair met in several is kept in the cell of the
    min corner of the two boxes' overlap only.
    """
    c0, r0 = _cell(grid.frame, min_x, min_y)
    c1, r1 = (c0, r0) if max_x is min_x else _cell(grid.frame, max_x, max_y)
    seg, col, row, whole = _box_cells(c0, r0, c1, r1)
    cell = col * grid.frame[4] + row
    start = grid.offsets[cell]
    count = grid.offsets[cell + 1] - start
    end = np.cumsum(count)
    at = np.repeat(np.arange(cell.size), count)
    pos = grid.members[np.arange(at.size) + (start - (end - count))[at]]
    seg = seg[at]
    bx0, by0, bx1, by1 = grid.boxes
    keep = ~(
        (min_x[seg] > bx1[pos]) | (max_x[seg] < bx0[pos])
        | (min_y[seg] > by1[pos]) | (max_y[seg] < by0[pos])
    )
    spread = whole < cell.size
    if spread:
        tail = slice(int(end[whole - 1]) if whole else 0, None)
        at, s, p = at[tail], seg[tail], pos[tail]
        keep[tail] &= (col[at] == np.maximum(c0[s], grid.first[0][p])) & (
            row[at] == np.maximum(r0[s], grid.first[1][p])
        )
    pos, seg = pos[keep], seg[keep]
    if spread:
        order = _stable_order(seg, c0.size)
        pos, seg = pos[order], seg[order]
    order = _stable_order(pos, len(bx0))
    return pos[order], seg[order]
