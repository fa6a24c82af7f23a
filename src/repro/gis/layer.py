"""Thematic layers: the geometric part of a GIS dimension.

A layer stores finitely many identified geometric elements per geometry
kind (nodes, lines, polylines, polygons).  The algebraic ``point`` level is
*not* stored — it is the infinite set of points of the plane, and the
rollup relation from points to stored elements is answered on demand by
:meth:`Layer.locate_point` (exactly as the paper describes the edge
``(point, polygon)`` "associates infinite point sets with polygons").
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.errors import InstanceError, SchemaError
from repro.geometry.index import Grid
from repro.geometry.overlay import geometries_intersect
from repro.geometry.point import Point
from repro.gis import geometries as gk


class Layer:
    """A named thematic layer holding identified geometries by kind."""

    def __init__(self, name: str) -> None:
        if not name:
            raise SchemaError("layer name must be non-empty")
        self.name = name
        self._elements: Dict[str, Dict[Hashable, object]] = {}
        #: Per kind, its ids in position order and their grid, built at
        #: the first point located.
        self._grids: Dict[str, Tuple[List[Hashable], Grid]] = {}

    def __repr__(self) -> str:
        sizes = {kind: len(elems) for kind, elems in self._elements.items()}
        return f"Layer({self.name!r}, {sizes})"

    # -- population ----------------------------------------------------------

    def add(self, kind: str, element_id: Hashable, geometry: object) -> None:
        """Add one identified geometry of the given kind.

        The geometry's Python type must match the kind; ids must be unique
        within (layer, kind).
        """
        cls = gk.expected_class(kind)
        if not isinstance(geometry, cls):
            raise InstanceError(
                f"kind {kind!r} expects {cls.__name__}, got "
                f"{type(geometry).__name__}"
            )
        bucket = self._elements.setdefault(kind, {})
        if element_id in bucket:
            raise InstanceError(
                f"duplicate id {element_id!r} for kind {kind!r} in layer "
                f"{self.name!r}"
            )
        bucket[element_id] = geometry
        self._grids.pop(kind, None)  # invalidate

    # -- access -----------------------------------------------------------------

    def kinds(self) -> Set[str]:
        """Geometry kinds with at least one element."""
        return {kind for kind, elems in self._elements.items() if elems}

    def elements(self, kind: str) -> Dict[Hashable, object]:
        """Return ``{id -> geometry}`` for a kind (empty dict if none)."""
        gk.validate_kind(kind)
        return dict(self._elements.get(kind, {}))

    def element(self, kind: str, element_id: Hashable) -> object:
        """Return one geometry; unknown ids raise."""
        try:
            return self._elements[kind][element_id]
        except KeyError:
            raise InstanceError(
                f"no element {element_id!r} of kind {kind!r} in layer "
                f"{self.name!r}"
            ) from None

    def __contains__(self, key: Tuple[str, Hashable]) -> bool:
        kind, element_id = key
        return element_id in self._elements.get(kind, {})

    def size(self, kind: Optional[str] = None) -> int:
        """Number of elements of one kind, or of all kinds."""
        if kind is not None:
            return len(self._elements.get(kind, {}))
        return sum(len(elems) for elems in self._elements.values())

    # -- spatial queries ----------------------------------------------------------

    def locate_point(self, kind: str, point: Point) -> Set[Hashable]:
        """Ids of elements of ``kind`` containing ``point``.

        This is the paper's rollup relation ``r^{point,kind}_L`` evaluated
        at one point.  Points on shared boundaries belong to every adjacent
        element.
        """
        gk.validate_kind(kind)
        elems = self._elements.get(kind)
        if not elems:
            return set()
        if kind not in self._grids:
            self._grids[kind] = (list(elems), Grid.of(elems))
        ids, grid = self._grids[kind]
        return {
            ids[p]
            for p in grid.query_point(point.x, point.y)
            if geometries_intersect(elems[ids[p]], point)
        }
