"""A uniform-grid spatial index.

The Piet evaluation strategy (Section 5 of the paper) precomputes layer
overlays and then intersects trajectory segments with the geometries
returned by the geometric subquery.  Both steps need a candidate filter:
given a bounding box, which geometry ids can possibly intersect it?  A
uniform grid answers this in O(cells touched) and is trivially correct,
which suits a reproduction better than a tuned R-tree.

The batched passes read the grid in array form
(:meth:`UniformGridIndex.bins`): :func:`candidate_pairs` maps a batch
of segment boxes, or points, to its ``(geometry position, segment)``
pairs in one vectorized pass, in memory O(segments + pairs).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, NamedTuple, Sequence, Set, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.point import BoundingBox, Point


class GridBins(NamedTuple):
    """A :class:`UniformGridIndex` over an ordered geometry list, as
    arrays: ``grid`` is ``(origin x, origin y, cell size, cols, rows)``,
    cell ``col * rows + row`` holds the positions ``members[offsets[c]:
    offsets[c + 1]]``, ``boxes`` is ``(min_x, min_y, max_x, max_y)`` per
    position and ``first`` the ``(col, row)`` of its min corner."""

    grid: Tuple[float, float, float, int, int]
    boxes: Tuple[np.ndarray, ...]
    first: Tuple[np.ndarray, np.ndarray]
    offsets: np.ndarray
    members: np.ndarray


def _cell(grid, x, y):
    """``(col, row)`` of points, clamped to the grid: monotone in each
    coordinate, which is what finds a pair in exactly one cell."""
    ox, oy, size, cols, rows = grid
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
    bins: GridBins,
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
    c0, r0 = _cell(bins.grid, min_x, min_y)
    c1, r1 = (c0, r0) if max_x is min_x else _cell(bins.grid, max_x, max_y)
    seg, col, row, whole = _box_cells(c0, r0, c1, r1)
    cell = col * bins.grid[4] + row
    start = bins.offsets[cell]
    count = bins.offsets[cell + 1] - start
    end = np.cumsum(count)
    at = np.repeat(np.arange(cell.size), count)
    pos = bins.members[np.arange(at.size) + (start - (end - count))[at]]
    seg = seg[at]
    bx0, by0, bx1, by1 = bins.boxes
    keep = ~(
        (min_x[seg] > bx1[pos]) | (max_x[seg] < bx0[pos])
        | (min_y[seg] > by1[pos]) | (max_y[seg] < by0[pos])
    )
    spread = whole < cell.size
    if spread:
        tail = slice(int(end[whole - 1]) if whole else 0, None)
        at, s, p = at[tail], seg[tail], pos[tail]
        keep[tail] &= (col[at] == np.maximum(c0[s], bins.first[0][p])) & (
            row[at] == np.maximum(r0[s], bins.first[1][p])
        )
    pos, seg = pos[keep], seg[keep]
    if spread:
        order = _stable_order(seg, c0.size)
        pos, seg = pos[order], seg[order]
    order = _stable_order(pos, len(bx0))
    return pos[order], seg[order]


class UniformGridIndex:
    """Maps object ids to grid cells by bounding box.

    Parameters
    ----------
    extent:
        The world box covered by the grid.  Objects may spill outside it;
        coordinates are clamped to the border cells.
    cell_size:
        Edge length of the square cells.  Smaller cells mean fewer false
        positives per query but more cells per insertion.
    """

    def __init__(self, extent: BoundingBox, cell_size: float) -> None:
        if cell_size <= 0:
            raise GeometryError("cell size must be positive")
        self.extent = extent
        self.cell_size = float(cell_size)
        self._cols = max(1, math.ceil(extent.width / self.cell_size))
        self._rows = max(1, math.ceil(extent.height / self.cell_size))
        self._cells: Dict[Tuple[int, int], Set[Hashable]] = {}
        self._boxes: Dict[Hashable, BoundingBox] = {}

    def __len__(self) -> int:
        return len(self._boxes)

    def __contains__(self, object_id: Hashable) -> bool:
        return object_id in self._boxes

    @property
    def shape(self) -> Tuple[int, int]:
        """Grid dimensions as ``(columns, rows)``."""
        return (self._cols, self._rows)

    def _cell_of(self, x: float, y: float) -> Tuple[int, int]:
        col = int((x - self.extent.min_x) / self.cell_size)
        row = int((y - self.extent.min_y) / self.cell_size)
        return (
            min(max(col, 0), self._cols - 1),
            min(max(row, 0), self._rows - 1),
        )

    def _cells_for_box(self, box: BoundingBox) -> Iterable[Tuple[int, int]]:
        c0, r0 = self._cell_of(box.min_x, box.min_y)
        c1, r1 = self._cell_of(box.max_x, box.max_y)
        for col in range(c0, c1 + 1):
            for row in range(r0, r1 + 1):
                yield (col, row)

    def insert(self, object_id: Hashable, box: BoundingBox) -> None:
        """Register ``object_id`` with extent ``box``.

        Re-inserting an id replaces its previous extent.
        """
        if object_id in self._boxes:
            self.remove(object_id)
        self._boxes[object_id] = box
        for cell in self._cells_for_box(box):
            self._cells.setdefault(cell, set()).add(object_id)

    def remove(self, object_id: Hashable) -> None:
        """Remove ``object_id``; unknown ids raise KeyError."""
        box = self._boxes.pop(object_id)
        for cell in self._cells_for_box(box):
            bucket = self._cells.get(cell)
            if bucket is not None:
                bucket.discard(object_id)
                if not bucket:
                    del self._cells[cell]

    def bbox_of(self, object_id: Hashable) -> BoundingBox:
        """Return the registered extent of ``object_id``."""
        return self._boxes[object_id]

    def query_box(self, box: BoundingBox) -> Set[Hashable]:
        """Return ids whose registered extent intersects ``box``.

        This is a *candidate* set at grid granularity refined by an exact
        bbox check; callers apply exact geometry predicates afterwards.
        """
        found: Set[Hashable] = set()
        for cell in self._cells_for_box(box):
            for object_id in self._cells.get(cell, ()):
                if object_id not in found and self._boxes[object_id].intersects(box):
                    found.add(object_id)
        return found

    def query_point(self, point: Point) -> Set[Hashable]:
        """Return ids whose registered extent contains ``point``."""
        cell = self._cell_of(float(point.x), float(point.y))
        return {
            object_id
            for object_id in self._cells.get(cell, ())
            if self._boxes[object_id].contains_point(point)
        }

    def items(self) -> Iterable[Tuple[Hashable, BoundingBox]]:
        """Iterate over ``(object_id, bbox)`` pairs."""
        return self._boxes.items()

    def bins(self, ids: Sequence[Hashable]) -> GridBins:
        """The grid over ``ids`` in array form, position ``i`` being
        ``ids[i]`` (what :func:`candidate_pairs` reads)."""
        boxes = tuple(
            np.array([float(getattr(self._boxes[i], side)) for i in ids])
            for side in ("min_x", "min_y", "max_x", "max_y")
        )
        grid = (
            float(self.extent.min_x), float(self.extent.min_y),
            self.cell_size, self._cols, self._rows,
        )
        c0, r0 = _cell(grid, boxes[0], boxes[1])
        owner, col, row, _ = _box_cells(c0, r0, *_cell(grid, *boxes[2:]))
        cell = col * self._rows + row
        counts = np.bincount(cell, minlength=self._cols * self._rows)
        return GridBins(
            grid, boxes, (c0, r0), np.concatenate(([0], np.cumsum(counts))),
            owner[np.argsort(cell, kind="stable")],
        )


def index_for_geometries(
    geometries: Dict[Hashable, object], cell_size: float | None = None
) -> UniformGridIndex:
    """Build an index over a mapping ``id -> geometry``.

    Every geometry must expose a ``bbox`` attribute (Point gets a degenerate
    box).  When ``cell_size`` is omitted, a heuristic picks the size: on
    the order of one object per cell, but no wider than the median object
    (so a probe seldom shares a cell with a box it misses), and not so
    fine that the grid has more than about 16 cells per object.
    """
    if not geometries:
        raise GeometryError("cannot index an empty geometry collection")
    boxes: Dict[Hashable, BoundingBox] = {}
    for object_id, geom in geometries.items():
        if isinstance(geom, Point):
            boxes[object_id] = BoundingBox(geom.x, geom.y, geom.x, geom.y)
        else:
            boxes[object_id] = geom.bbox
    extent = None
    for box in boxes.values():
        extent = box if extent is None else extent.union(box)
    assert extent is not None
    if cell_size is None:
        span = max(extent.width, extent.height)
        if span == 0:
            cell_size = 1.0
        else:
            root = max(1.0, math.sqrt(len(boxes)))
            sides = sorted(max(b.width, b.height) for b in boxes.values())
            median = float(sides[len(sides) // 2])
            cell_size = max(min(span / root, median), span / (4 * root))
    index = UniformGridIndex(extent.expanded(cell_size), cell_size)
    for object_id, box in boxes.items():
        index.insert(object_id, box)
    return index
