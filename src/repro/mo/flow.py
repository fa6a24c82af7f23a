"""Trajectory aggregation by homogeneous spatial units (Meratnia & de By).

Section 2 of the paper: "Meratnia and de By have tackled the topic of
aggregation of trajectories.  They identify similar trajectories and merge
them in a single one, by dividing the area of study into homogeneous
spatial units; each unit is associated to an integer, representing the
number of times any object passes through it.  Based on this, they obtain
the aggregated trajectories.  They claim that their method is insensitive
to differences in sequence length and sampling intervals."

:class:`FlowGrid` implements that construction: a uniform grid over the
study area counts, per cell, how many *objects* (not samples — that is
what makes it insensitive to sampling rate) pass through the cell under
linear interpolation.  :meth:`FlowGrid.aggregated_trajectory` then chains
the locally dominant flow directions into a representative polyline.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.errors import GeometryError, TrajectoryError
from repro.geometry.point import BoundingBox, Point
from repro.geometry.segment import Segment
from repro.mo.moft import MOFT

Cell = Tuple[int, int]


class FlowGrid:
    """Per-cell pass counts for a MOFT over a uniform grid.

    Parameters
    ----------
    extent:
        The study area.  Trajectory parts outside it are ignored.
    cols, rows:
        Grid resolution.
    """

    def __init__(self, extent: BoundingBox, cols: int = 16, rows: int = 16) -> None:
        if cols < 1 or rows < 1:
            raise GeometryError("flow grid needs at least one cell")
        if extent.width <= 0 or extent.height <= 0:
            raise GeometryError("flow grid needs a non-degenerate extent")
        self.extent = extent
        self.cols = cols
        self.rows = rows
        self._counts: Dict[Cell, int] = {}
        self._transitions: Dict[Tuple[Cell, Cell], int] = {}
        self._objects_seen = 0

    # -- cell addressing ---------------------------------------------------------

    def cell_of(self, point: Point) -> Optional[Cell]:
        """Return the cell containing ``point``, or None outside the extent."""
        if not self.extent.contains_point(point):
            return None
        col = int(
            (float(point.x) - self.extent.min_x)
            / self.extent.width
            * self.cols
        )
        row = int(
            (float(point.y) - self.extent.min_y)
            / self.extent.height
            * self.rows
        )
        return (min(col, self.cols - 1), min(row, self.rows - 1))

    def cell_center(self, cell: Cell) -> Point:
        """Center point of a cell."""
        col, row = cell
        return Point(
            self.extent.min_x + (col + 0.5) * self.extent.width / self.cols,
            self.extent.min_y + (row + 0.5) * self.extent.height / self.rows,
        )

    # -- accumulation ----------------------------------------------------------------

    def _cells_along(self, segment: Segment) -> List[Cell]:
        """Cells visited by a segment, by dense parametric sampling."""
        steps = 2 * (self.cols + self.rows)
        cells: List[Cell] = []
        for i in range(steps + 1):
            cell = self.cell_of(segment.point_at(i / steps))
            if cell is not None and (not cells or cells[-1] != cell):
                if cell in cells:
                    continue
                cells.append(cell)
        return cells

    def add_object(self, history: List[Tuple[float, float, float]]) -> None:
        """Accumulate one object's interpolated path.

        Each visited cell counts once per object, which is what makes the
        method "insensitive to differences in sequence length and sampling
        intervals".
        """
        if not history:
            raise TrajectoryError("empty history")
        visited: List[Cell] = []
        seen: Set[Cell] = set()
        if len(history) == 1:
            cell = self.cell_of(Point(history[0][1], history[0][2]))
            if cell is not None:
                visited.append(cell)
                seen.add(cell)
        else:
            for (t0, x0, y0), (t1, x1, y1) in zip(history, history[1:]):
                segment = Segment(Point(x0, y0), Point(x1, y1))
                for cell in self._cells_along(segment):
                    if cell not in seen:
                        seen.add(cell)
                        visited.append(cell)
        for cell in visited:
            self._counts[cell] = self._counts.get(cell, 0) + 1
        for a, b in zip(visited, visited[1:]):
            self._transitions[(a, b)] = self._transitions.get((a, b), 0) + 1
        self._objects_seen += 1

    def add_moft(self, moft: MOFT) -> None:
        """Accumulate every object of a MOFT."""
        for oid in sorted(moft.objects(), key=repr):
            self.add_object(moft.history(oid))

    # -- readout ---------------------------------------------------------------------

    @property
    def objects_seen(self) -> int:
        """Number of objects accumulated."""
        return self._objects_seen

    def count(self, cell: Cell) -> int:
        """Pass count of one cell (0 when never visited)."""
        return self._counts.get(cell, 0)

    def counts(self) -> Dict[Cell, int]:
        """All nonzero cell counts."""
        return dict(self._counts)

    def hottest_cells(self, limit: int = 5) -> List[Tuple[Cell, int]]:
        """The ``limit`` cells with the highest pass counts."""
        ranked = sorted(
            self._counts.items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:limit]

    def aggregated_trajectory(self, max_length: int = 64) -> List[Point]:
        """A representative path: follow dominant cell-to-cell transitions.

        Starts at the hottest cell and repeatedly follows the most frequent
        outgoing transition to an unvisited cell; returns the chain of cell
        centers.  Empty grid returns an empty list.
        """
        if not self._counts:
            return []
        current = self.hottest_cells(1)[0][0]
        path = [current]
        visited = {current}
        while len(path) < max_length:
            candidates = [
                (count, b)
                for (a, b), count in self._transitions.items()
                if a == current and b not in visited
            ]
            if not candidates:
                break
            count, best = max(candidates, key=lambda item: (item[0], item[1]))
            path.append(best)
            visited.add(best)
            current = best
        return [self.cell_center(cell) for cell in path]


def flow_grid_for_moft(
    moft: MOFT, cols: int = 16, rows: int = 16
) -> FlowGrid:
    """Build a flow grid over a MOFT's bounding box and accumulate it."""
    box = moft.bbox()
    if box.width == 0 or box.height == 0:
        box = box.expanded(1.0)
    grid = FlowGrid(box, cols, rows)
    grid.add_moft(moft)
    return grid
